// Multi-instance log merging (paper §3.2).
//
// When a service scales out across several LibSEAL instances (e.g. behind
// a load balancer), each instance logs the subset of client interactions
// it terminated. Invariant checking needs a single ordered view: "These
// partial logs must first be merged into a single log before invariant
// checking."
//
// Each instance's entries carry its own logical timestamps, so the merge
// (a) verifies every partial log independently (hash chain + signature +
// counter), (b) interleaves entries by (instance round, position) into a
// fresh database with globally re-assigned timestamps that preserve each
// instance's internal order, and (c) returns that database for querying.
#ifndef SRC_CORE_LOG_MERGE_H_
#define SRC_CORE_LOG_MERGE_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/audit_log.h"
#include "src/core/service_module.h"
#include "src/db/database.h"

namespace seal::core {

struct PartialLog {
  std::string path;                       // base path of the persisted log
  crypto::EcdsaPublicKey log_public_key;  // that instance's enclave key
  const rote::RoteCounter* counter = nullptr;  // for rollback verification
  Bytes encryption_key;                   // empty if the log is plaintext
};

struct MergeResult {
  db::Database database;      // merged, ready for invariant queries
  size_t total_entries = 0;
  size_t instances = 0;
};

// One entry of a partial log, tagged with which instance produced it.
struct TaggedEntry {
  size_t instance = 0;
  LogEntry entry;
};

// The interleave + materialise core shared by offline merging and the
// runtime cross-shard checker: sorts `all` by (wall clock, instance,
// logical time), re-assigns contiguous global timestamps that preserve
// each instance's internal order, and inserts the rows into a fresh
// database carrying the SSM's schema and views. Callers provide already
// verified/trusted entries (MergeVerifiedLogs verifies the on-disk
// partials first; ShardSet snapshots in-enclave state that never left
// the trust boundary).
Result<MergeResult> MergeTaggedEntries(std::vector<TaggedEntry> all,
                                       ServiceModule& module, size_t instances);

// Verifies and merges the partial logs into one database with the given
// SSM schema. Fails if ANY partial log fails verification: a merged view
// over unverified inputs would not be evidence. Also fails if two partials
// present the same instance key for the same counter round: a duplicated
// (or forked-and-rolled-back) shard log must not be double-counted as
// evidence.
Result<MergeResult> MergeVerifiedLogs(const std::vector<PartialLog>& partials,
                                      ServiceModule& module);

}  // namespace seal::core

#endif  // SRC_CORE_LOG_MERGE_H_
