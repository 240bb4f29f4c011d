// Horizontal scale-out: the multi-enclave sharded audit log (ROADMAP
// item 2; paper §3.2 anticipates the merge of partial logs).
//
// A ShardSet runs N LibSealRuntime instances in one process. Each shard is
// a full vertical slice — its own enclave identity (LibSealOptions::
// instance_tag folds the shard number into the measurement, so every shard
// derives a distinct log signing key), hash chain, seadb, segmented
// durable log and CheckerEngine — and appends proceed on the shards with
// no shared lock, which is where the near-linear scaling comes from
// (bench_sharding).
//
// Epoch anchoring: independent per-shard ROTE counters prevent each
// shard's log from being rolled back in isolation, but say nothing about
// the COMBINED log — an operator could revert shard 3 to an old backup
// complete with its old (still quorum-consistent, if the operator also
// rewinds that shard's cluster) head. AnchorEpoch() closes this: each
// epoch it commits every shard's head (one per-shard counter round),
// takes one round of a single SHARED ROTE-backed epoch counter, and
// atomically persists a signed record of (epoch, every shard's chain
// head/counter/entry count). The anchor signing key derives from the
// concatenated shard measurements, so the record also pins the shard-set
// membership. Recovery verifies the record and accepts a shard only at or
// past its anchored head: the set either advances as a whole or is caught
// out per shard.
//
// Crash window: heads commit before the epoch record (phase 1 then phase
// 2). A crash between the phases leaves shards past the last anchored
// record — recovery treats "at or past the anchor" as consistent and
// re-anchors the recovered state. The reverse order would instead leave a
// record claiming heads that never became durable, which is exactly the
// rollback evidence we must never fabricate. tests/recovery_test.cc kills
// the process model in this window.
//
// Cross-shard invariants run scatter-gather: every shard's live entries
// are snapshotted in the SAME critical section as its head commit
// (AuditLogger::CommitAndSnapshotHead), giving a consistent cut of
// per-shard prefixes; the cut is merged with the log_merge interleave
// (wall-clock order, re-assigned global timestamps) into a fresh database
// and the SSM's invariants are evaluated there, in parallel, against a
// pinned snapshot. Per-shard partial evaluation would be unsound — a Git
// advertisement on shard B can only be matched against pushes on shard A
// after the merge — so the merged view is the truth and the parallelism
// lives in the scatter and evaluation phases.
#ifndef SRC_CORE_SHARD_H_
#define SRC_CORE_SHARD_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/core/checker.h"
#include "src/core/libseal.h"
#include "src/core/log_merge.h"
#include "src/rote/rote.h"

namespace seal::core {

// One shard's line in an epoch record.
struct ShardHeadInfo {
  uint32_t shard = 0;
  Bytes chain_head;            // SHA-256 chain head the shard committed
  uint64_t counter_value = 0;  // that shard's own ROTE round
  uint64_t entry_count = 0;
};

// The signed head vector anchoring all shards to one shared epoch.
struct EpochRecord {
  uint64_t epoch = 0;      // shared epoch-counter round
  int64_t wall_nanos = 0;  // when the anchor was taken
  std::vector<ShardHeadInfo> heads;

  // Canonical byte encoding (what the anchor key signs).
  Bytes Serialize() const;
  static Result<EpochRecord> Deserialize(BytesView in);
};

// Outcome of one cross-shard check round.
struct CrossShardReport {
  CheckReport report;         // violations over the merged view
  uint64_t epoch = 0;         // the anchor this cut corresponds to
  size_t shards = 0;
  size_t merged_entries = 0;
  int64_t scatter_nanos = 0;  // per-shard commit + snapshot (parallel)
  int64_t merge_nanos = 0;    // interleave + materialise
  int64_t eval_nanos = 0;     // invariant evaluation on the merged db
};

struct ShardSetOptions {
  size_t shards = 4;
  // Template applied to every shard. Per-shard, ShardSet rewrites
  // `instance_tag` to "shard<K>" (appended to any tag already set),
  // `audit_log.path` to "<path>.shard<K>" and `logger.shard_index` to K.
  LibSealOptions libseal;
  // Where the signed epoch record lives. Empty = "<audit_log.path>.epoch"
  // (kMemory mode or an empty path disables anchoring persistence).
  std::string epoch_path;
  // The shared epoch counter's cluster. One round per anchor, regardless
  // of shard count.
  rote::RoteCounter::Options epoch_counter;
  // Verify an existing epoch record against the recovered shards at Init
  // (requires libseal.audit_log.recover) and re-anchor. Without a record
  // on disk, recovery proceeds per shard and a fresh anchor is written.
  bool recover = false;
};

class ShardSet {
 public:
  // `module_factory` builds one ServiceModule per shard (plus one for the
  // merged cross-shard view); SSMs are stateless, so instances are
  // interchangeable.
  ShardSet(ShardSetOptions options,
           std::function<std::unique_ptr<ServiceModule>()> module_factory);
  ~ShardSet();

  ShardSet(const ShardSet&) = delete;
  ShardSet& operator=(const ShardSet&) = delete;

  // Brings up every shard runtime (recovering each shard's log when
  // configured), verifies the epoch record against the recovered state
  // (options.recover), and writes a fresh anchor.
  Status Init();
  void Shutdown();

  // Stable route-key -> shard map (splitmix64 finalizer, then modulo):
  // the same key always lands on the same shard for a given shard count.
  static uint32_t ShardFor(uint64_t route_key, size_t shard_count);
  uint32_t ShardFor(uint64_t route_key) const {
    return ShardFor(route_key, runtimes_.size());
  }

  // Feeds a pair to the shard owning `route_key`. The direct intake path
  // for benchmarks, tests and embedders that already route connections;
  // network traffic reaches shards through services::ShardedTransport.
  Result<std::optional<CheckReport>> OnPair(uint64_t route_key, std::string_view request,
                                            std::string_view response, bool force_check);

  // Commits every shard's head (phase 1), then takes one shared epoch
  // round and atomically persists the signed head vector (phase 2). See
  // the file comment for the crash-ordering argument.
  Result<EpochRecord> AnchorEpoch();

  // Anchors an epoch AND evaluates the SSM's invariants over the merged
  // consistent cut at that epoch.
  Result<CrossShardReport> CheckCrossShard();

  // Reads + signature-verifies a persisted epoch record.
  static Result<EpochRecord> ReadEpochRecord(const std::string& path,
                                             const crypto::EcdsaPublicKey& anchor_key);

  size_t shard_count() const { return runtimes_.size(); }
  LibSealRuntime& shard(size_t i) { return *runtimes_[i]; }
  AuditLogger* logger(size_t i) { return runtimes_[i]->logger(); }
  rote::RoteCounter& epoch_counter() { return *epoch_counter_; }
  const crypto::EcdsaPublicKey& anchor_public_key() const { return anchor_public_key_; }
  const std::string& epoch_path() const { return epoch_path_; }
  uint64_t last_anchored_epoch() const { return last_anchored_epoch_; }

  // Crash injection: when set, AnchorEpoch stops after phase 1 (heads
  // committed, epoch record untouched) and returns Unavailable — the process
  // "died" in the crash window. recovery_test.cc exercises both sides.
  bool crash_after_head_commit_for_testing = false;

 private:
  // Phase 1 of an anchor: per-shard head commits (+ optional entry
  // snapshots for the cross-shard cut), one thread per shard.
  Status CommitAllHeads(std::vector<ShardHeadInfo>* heads,
                        std::vector<std::vector<LogEntry>>* entries);
  // Phase 2: shared epoch round + signed record persist.
  Result<EpochRecord> CommitEpochRecord(std::vector<ShardHeadInfo> heads);
  // options.recover: checks each recovered shard against the persisted
  // record ("at or past its anchored head").
  Status VerifyRecoveredAgainstRecord();

  ShardSetOptions options_;
  std::function<std::unique_ptr<ServiceModule>()> module_factory_;
  std::vector<std::unique_ptr<LibSealRuntime>> runtimes_;
  // Schema/invariant source for the merged cross-shard view.
  std::unique_ptr<ServiceModule> merged_module_;
  std::unique_ptr<rote::RoteCounter> epoch_counter_;
  crypto::EcdsaPrivateKey anchor_key_;
  crypto::EcdsaPublicKey anchor_public_key_;
  std::string epoch_path_;
  uint64_t last_anchored_epoch_ = 0;
  bool initialised_ = false;
};

}  // namespace seal::core

#endif  // SRC_CORE_SHARD_H_
