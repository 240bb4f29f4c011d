// The LibSEAL logger: feeds request/response pairs through the service-
// specific module into the audit log, runs invariant checks (periodically
// or on client demand via the Libseal-Check header) and trims the log.
//
// Concurrency model (§6.3 scalability): OnPair parses the pair OUTSIDE any
// lock (SSMs are stateless), stamps it with a logical-time ticket and
// stages it in one of kAppendShards intake shards keyed by connection id.
// Whichever thread wins `drain_mutex_` becomes the sequencer: it sweeps
// the shards, replays staged pairs in strict ticket order into the hash
// chain + seadb, fires any triggered checks from the drain step, and
// commits the head once per batch (group commit). Every other thread just
// waits for its own pair to be drained, so OnPair keeps its synchronous
// contract — when it returns in kDisk mode, the entry is flushed, counted
// and signed — without a global lock on the parse or persist work.
#ifndef SRC_CORE_LOGGER_H_
#define SRC_CORE_LOGGER_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/core/audit_log.h"
#include "src/core/checker.h"
#include "src/core/service_module.h"

namespace seal::sgx {
class Enclave;
}  // namespace seal::sgx

namespace seal::obs {
class Counter;
}  // namespace seal::obs

namespace seal::core {

// Intake shards for OnPair staging. Connection ids hash onto shards, so
// concurrent connections rarely contend on the same staging lock.
inline constexpr size_t kAppendShards = 8;

// Check rounds always run on the engine's checker thread against database
// snapshots: the drain step only enqueues a trigger (O(1)) and appenders
// never stall on invariant evaluation. Only a forced pair blocks its own
// OnPair until the covering round completes (§6.3 response-header
// semantics); interval rounds are observed through on_report or
// AuditLogger::last_report().
struct LoggerOptions {
  // Run checking + trimming automatically every N request/response pairs
  // (Fig. 6 sweeps this; the paper finds 25 optimal for Git, 75 for
  // ownCloud, 100 for Dropbox). 0 disables automatic checks. Pairs that
  // contribute no tuples to the log do not count towards the interval.
  size_t check_interval = 25;
  // Rate limit for client-triggered checks (§6.3 denial-of-service): at
  // most one forced check per this many pairs. 0 = no limit. A forced
  // check that coincides with an interval check does not consume the
  // forced budget (the check would have run anyway).
  size_t forced_check_min_gap = 0;
  // Incremental checking: an invariant declared monotone is re-evaluated
  // only over tuples appended since its last clean check (per-invariant
  // time watermark). Falls back to full scans after any trim that removed
  // rows. Benchmarks flip this off to measure full-scan checking.
  bool incremental_checking = true;
  // When set, checker-thread CPU time is charged as in-enclave execution.
  sgx::Enclave* enclave = nullptr;
  // Observer invoked once per completed check round (any trigger), from
  // the thread that ran the round, before waiters wake.
  std::function<void(const CheckReport&)> on_report;
  // Which ShardSet shard this logger serves (-1 = unsharded). Only labels
  // the per-shard metrics (`shard_appends_total{shard="N"}`).
  int shard_index = -1;
};

class AuditLogger {
 public:
  AuditLogger(std::unique_ptr<ServiceModule> module, AuditLogOptions log_options,
              LoggerOptions logger_options, crypto::EcdsaPrivateKey signing_key);
  ~AuditLogger();

  // Creates the SSM's schema. Must be called once before pairs flow.
  Status Init();

  // Processes one request/response pair: parse, log, persist, and --- when
  // the interval elapses or `force_check` is set --- check and trim.
  // `conn_id` selects the intake shard; pairs from one connection stay
  // ordered because each caller processes its connection's pairs
  // sequentially.
  //
  // Reports: only a forced pair returns one. It blocks until a round
  // covering it completes and returns that round's report. Interval rounds
  // complete in the background; observe them via last_report()/on_report,
  // or call WaitForChecks() first to quiesce.
  Result<std::optional<CheckReport>> OnPair(uint64_t conn_id, std::string_view request,
                                            std::string_view response, bool force_check);
  Result<std::optional<CheckReport>> OnPair(std::string_view request, std::string_view response,
                                            bool force_check) {
    return OnPair(0, request, response, force_check);
  }

  // Runs all invariants now (no trim). The round is enqueued and this call
  // waits for it WITHOUT holding the drain lock, so manual checks do not
  // freeze appenders.
  Result<CheckReport> CheckInvariants();

  // One shard's contribution to an epoch anchor: its committed head and,
  // when `entries_out` is set, a snapshot of the live entries taken in the
  // SAME critical section — the per-shard half of a consistent cross-shard
  // cut (no entry can land between the head commit and the copy).
  struct CommittedHead {
    Bytes chain_head;
    uint64_t counter_value = 0;  // ROTE round the head is bound to (0 in kMemory)
    uint64_t entry_count = 0;
    int64_t max_ticket = 0;  // highest logical time drained into the log
  };

  // Drains everything staged, commits the head if any tuple landed since
  // the last commit, and returns the committed state. ShardSet calls this
  // on every shard at each epoch boundary.
  Result<CommittedHead> CommitAndSnapshotHead(std::vector<LogEntry>* entries_out = nullptr);

  // Drains staged pairs, then runs the SSM's trimming queries and rebuilds
  // the hash chain: the same step a round's trim takes.
  Status Trim();

  // Blocks until no check round is pending or running.
  void WaitForChecks();

  AuditLog& log() { return log_; }
  ServiceModule& module() { return *module_; }
  int64_t pairs_logged() const { return pairs_logged_.load(std::memory_order_relaxed); }
  // The report of the most recently completed round, by value: the
  // checker thread overwrites it concurrently with readers.
  std::optional<CheckReport> last_report() const {
    std::lock_guard<std::mutex> lock(report_mutex_);
    return last_report_;
  }

  // The engine running check rounds (valid after Init). Exposed for tests
  // (PauseForTesting, rounds_completed).
  CheckerEngine* checker() { return engine_.get(); }

  // What Init()'s recovery pass found (meaningful only with
  // AuditLogOptions::recover).
  const AuditLog::RecoveryInfo& recovery_info() const { return recovery_info_; }

  // The incremental watermark of the i-th invariant (in Invariants()
  // order): the highest logical time its last clean check covered, or -1
  // when the next check must scan the full log.
  int64_t watermark_for_testing(size_t invariant_index) const;

 private:
  // One staged request/response pair, owned by the OnPair frame that
  // created it; the sequencer only touches it between collection and the
  // done handshake.
  struct PendingPair {
    int64_t time = 0;  // the logical-time ticket, also the drain order
    std::vector<LogTuple> tuples;
    bool force_check = false;

    // Filled by the sequencer.
    Status status;
    // The round this pair must rendezvous with (forced checks, and
    // forced-riding-interval). OnPair waits on it after the drain
    // handshake, outside every logger lock.
    std::shared_ptr<CheckRound> round;

    std::mutex m;
    std::condition_variable cv;
    bool done = false;
  };

  struct alignas(64) Shard {
    std::mutex mutex;
    std::vector<PendingPair*> staged;
  };

  // Sweeps all shards and replays staged pairs in ticket order; fires
  // triggered checks and the per-batch commit. Caller holds drain_mutex_.
  void DrainStagedLocked();
  // Appends one pair and evaluates its check triggers. Caller holds
  // drain_mutex_.
  void ProcessPairLocked(PendingPair* op);
  // Flushes + commits the head if any tuple landed since the last commit,
  // propagating a failure into every affected pair. Caller holds
  // drain_mutex_.
  Status CommitIfDirtyLocked();
  // Builds + starts the checker engine on first use. Caller holds
  // drain_mutex_.
  void EnsureEngineLocked();
  // Evaluates `op`'s check trigger: enqueues a round or attaches to the
  // pending one. Caller holds drain_mutex_.
  void TriggerChecksLocked(PendingPair* op, bool interval_check);
  // Trimming: runs the SSM's queries, resets watermarks when rows left the
  // log and counts the trim; fills `report` when set. Caller holds
  // drain_mutex_ (a round's trim step takes it on the checker thread).
  Status TrimLocked(CheckReport* report);
  // Publishes a completed round's report (engine on_report callback).
  void PublishReport(const CheckReport& report);

  std::unique_ptr<ServiceModule> module_;
  AuditLog log_;
  LoggerOptions options_;

  std::atomic<int64_t> next_time_{1};
  AuditLog::RecoveryInfo recovery_info_;
  std::atomic<int64_t> pairs_logged_{0};
  std::array<Shard, kAppendShards> shards_;

  // The sequencer's critical section: the audit log, the check state and
  // the reorder buffer below.
  mutable std::mutex drain_mutex_;
  // Collected-but-not-yet-processed pairs, keyed by ticket. Pairs are
  // replayed strictly in ticket order; a gap means some thread holds a
  // ticket it has not staged yet, and the drain stops until that thread's
  // own drain attempt (or a later sequencer) fills it.
  std::map<int64_t, PendingPair*> reorder_;
  int64_t next_drain_time_ = 1;
  bool dirty_since_commit_ = false;
  // Pairs appended since the last successful commit; a commit failure is
  // reported to all of them.
  std::vector<PendingPair*> uncommitted_;
  int64_t pairs_since_check_ = 0;
  // pairs_logged_ at the moment the forced-check budget was last spent, or
  // -1 if it never was. An absolute count, not a delta.
  int64_t last_forced_check_pair_ = -1;

  // The checking engine (created lazily under drain_mutex_; owns the
  // invariants, watermarks and prepared-plan cache).
  std::unique_ptr<CheckerEngine> engine_;

  mutable std::mutex report_mutex_;
  std::optional<CheckReport> last_report_;

  // Per-shard append counter, resolved once at construction (the SEAL_OBS
  // macros cache via function-local statics, which cannot carry a dynamic
  // shard label). Null when unsharded.
  obs::Counter* shard_appends_ = nullptr;
};

}  // namespace seal::core

#endif  // SRC_CORE_LOGGER_H_
