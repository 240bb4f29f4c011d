// Asynchronous invariant-checking engine (paper §5, §6.6).
//
// LibSEAL checks invariants "periodically, e.g., based on time or log
// size" precisely so checking stays off the request path. This engine
// realises that: the sequencer's drain step only captures a database
// snapshot and enqueues a trigger (O(1)); a dedicated checker thread —
// accounted as in-enclave execution like the asyncall workers — evaluates
// the invariants one after another against the pinned snapshot and
// publishes a CheckReport. Appenders keep inserting past the snapshot
// watermark the whole time. Every round, whatever triggered it, runs on
// that thread.
//
// Round life cycle and coalescing: at most one PENDING and one RUNNING
// round exist. Enqueueing while a round is pending merges into it (the
// snapshot and horizon are refreshed, so the pending round covers every
// pair logged up to the latest trigger); a forced check that finds a
// pending round attaches to it without spending the forced-check budget —
// one evaluation, one charge. Completion is a future-style handshake:
// holders of the round block in CheckRound::Wait().
//
// Watermark soundness across trims: a clean monotone invariant's watermark
// only advances to the round's horizon if the database's trim epoch still
// matches the snapshot's at completion; any interleaved trim resets the
// watermarks (via OnTrimmed) and wins.
#ifndef SRC_CORE_CHECKER_H_
#define SRC_CORE_CHECKER_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/status.h"
#include "src/core/audit_log.h"
#include "src/core/service_module.h"
#include "src/db/database.h"

namespace seal::sgx {
class Enclave;
}  // namespace seal::sgx

namespace seal::core {

// Outcome of one invariant-checking round.
struct CheckReport {
  struct Violation {
    std::string invariant;
    db::QueryResult rows;  // the offending log entries
  };
  // Per-invariant coverage of this round, for round-tiling assertions:
  // the scan covered logical times (floor, covered]; floor == -1 means a
  // full scan from the beginning of the log.
  struct Coverage {
    std::string invariant;
    int64_t floor = -1;
    int64_t covered = -1;
  };
  std::vector<Violation> violations;
  size_t invariants_checked = 0;
  int64_t check_nanos = 0;
  int64_t trim_nanos = 0;
  // Rows the round's trim removed from the hot log, and how many of those
  // went into a sealed archive segment (AuditLogOptions::archive_trimmed).
  size_t trimmed_rows = 0;
  size_t archived_rows = 0;
  // Every pair with logical time <= covered_time had been drained into the
  // database when this round's snapshot was captured.
  int64_t covered_time = 0;
  std::vector<Coverage> coverage;

  bool clean() const { return violations.empty(); }
  // Compact form for the Libseal-Check-Result response header.
  std::string Summary() const;
};

// One checking round: trigger metadata, the pinned snapshot to evaluate
// against, and the future-style completion handshake. While the round is
// pending its snapshot/horizon may be refreshed (under the engine mutex);
// once running, the checker thread owns them.
struct CheckRound {
  enum class Trigger { kInterval, kForced, kManual };

  Trigger trigger = Trigger::kInterval;
  bool want_trim = false;
  int64_t horizon = 0;  // highest logical time the snapshot covers
  db::Snapshot snapshot;

  // Blocks until the round completes (or the engine stops); returns the
  // round's status. `report` is valid after a successful Wait().
  Status Wait();

  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  Status status;
  CheckReport report;
};

// The engine. Owns the invariant list, the per-invariant incremental
// watermarks and the prepared-plan cache; runs every round on its
// dedicated checker thread.
class CheckerEngine {
 public:
  using Trigger = CheckRound::Trigger;

  struct Options {
    bool incremental_checking = true;
    // When set, checker-thread CPU time is charged as in-enclave execution
    // (like the asyncall workers).
    sgx::Enclave* enclave = nullptr;
    // Observer invoked once per completed round, before waiters wake.
    std::function<void(const CheckReport&)> on_report;
  };

  // Runs the trimming step of a round on the checker thread. Must do its
  // own locking (the logger takes its drain mutex); called with no engine
  // lock held. Fills the report's trim_nanos.
  using TrimFn = std::function<Status(CheckReport*)>;

  CheckerEngine(AuditLog* log, std::vector<Invariant> invariants, Options options,
                TrimFn trim_fn);
  ~CheckerEngine();

  CheckerEngine(const CheckerEngine&) = delete;
  CheckerEngine& operator=(const CheckerEngine&) = delete;

  // Spawns the checker thread.
  void Start();
  // Fails the pending round with Unavailable, finishes the running one,
  // joins the checker thread. Idempotent.
  void Stop();

  // Requests a round covering logical times up to `horizon`. Merges into
  // the pending round if one exists (refreshing its snapshot + horizon).
  // The caller must hold the lock that serialises database writers — the
  // snapshot is captured here.
  std::shared_ptr<CheckRound> Enqueue(Trigger trigger, bool want_trim, int64_t horizon);

  // Returns the pending round, refreshed to cover `need_horizon`, or
  // nullptr when there is nothing to attach to (a RUNNING round never
  // qualifies: its snapshot predates the caller's pair). Same locking
  // contract as Enqueue. Used by forced-check coalescing.
  std::shared_ptr<CheckRound> TryAttach(int64_t need_horizon);

  // A trim removed rows: every watermark resets to "full scan".
  void OnTrimmed();

  // Blocks until no round is pending or running.
  void WaitIdle();

  // Holds back the checker thread from starting pending rounds, letting
  // tests pile up triggers and observe coalescing.
  void PauseForTesting(bool paused);

  size_t invariant_count() const { return invariants_.size(); }
  uint64_t rounds_completed() const {
    return rounds_completed_.load(std::memory_order_acquire);
  }
  int64_t watermark_for_testing(size_t invariant_index) const;
  size_t plan_cache_size() const { return plan_cache_.size(); }

 private:
  void ThreadMain();
  void RunRound(CheckRound& round);
  // Evaluates the invariants in declaration order against the round's
  // snapshot into round.report, and advances watermarks.
  Status EvaluateRound(CheckRound& round);
  void CompleteRound(const std::shared_ptr<CheckRound>& round, Status status);
  void UpdateQueueDepthLocked();

  AuditLog* log_;
  const std::vector<Invariant> invariants_;
  Options options_;
  TrimFn trim_fn_;

  db::PlanCache plan_cache_;

  // Watermarks: highest logical time each invariant's last clean check
  // covered; -1 = next check scans the full log.
  mutable std::mutex wm_mutex_;
  std::vector<int64_t> watermarks_;

  // Round queue.
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  // checker thread: pending round / stop
  std::condition_variable idle_cv_;  // WaitIdle
  std::shared_ptr<CheckRound> pending_;
  std::shared_ptr<CheckRound> running_;
  bool paused_ = false;
  bool stop_ = false;
  bool started_ = false;

  std::atomic<uint64_t> rounds_completed_{0};

  std::thread worker_;
};

}  // namespace seal::core

#endif  // SRC_CORE_CHECKER_H_
