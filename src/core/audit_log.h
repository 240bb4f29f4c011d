// The non-repudiable audit log (paper §5.1).
//
// Tuples live in the in-enclave relational database (seadb). Integrity is
// protected by a hash chain over all tuples plus an ECDSA signature by the
// enclave's log key; rollback of the persisted log is prevented by binding
// each flush to a fresh value of the distributed monotonic counter (ROTE).
// Trimming re-computes the hashes of the remaining entries.
//
// On disk (kDisk) the log is a run of fixed-size segments with chained
// headers (`<path>.segNNNNNN`, see log_segment.h) plus the signed head
// (`<path>.sig`); closed segments are fsynced and immutable. One scanner
// reads them back for VerifyLogFile, ReadVerifiedEntries and Recover.
// Periodic sealed snapshots (`snapshot_interval_bytes`) make restart
// O(tail): Recover() loads the newest valid snapshot and replays only the
// segments past it. With `archive_trimmed`, Trim moves deleted rows into
// compressed sealed archive segments so the full history stays auditable
// offline.
#ifndef SRC_CORE_AUDIT_LOG_H_
#define SRC_CORE_AUDIT_LOG_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/core/log_segment.h"
#include "src/crypto/ecdsa.h"
#include "src/crypto/gcm.h"
#include "src/crypto/sha256.h"
#include "src/db/database.h"
#include "src/rote/rote.h"

namespace seal::core {

enum class PersistenceMode {
  kMemory,  // LibSEAL-mem: tuples only in the in-enclave database
  kDisk,    // LibSEAL-disk: synchronous flush + counter round per pair
};

struct AuditLogOptions {
  PersistenceMode mode = PersistenceMode::kMemory;
  std::string path;  // base path for kDisk: "<path>.segNNNNNN" segments, "<path>.sig" head
  // Encrypt the persisted log (log privacy, §6.3). The key is derived by
  // the caller (sealing); empty = sign-only.
  Bytes encryption_key;
  rote::RoteCounter::Options counter_options;

  // --- durable lifecycle ---
  // Records go into `<path>.segNNNNNN` files; the active segment is closed
  // and the next one opened once it would exceed this many bytes (a record
  // larger than that gets a segment of its own).
  uint64_t segment_bytes = 4 << 20;
  // Resume from on-disk state instead of starting fresh: the constructor
  // leaves prior files alone and Recover() (called after ExecuteSchema)
  // restores the database, chain and counters from the newest valid
  // snapshot plus the tail segments. With false, construction removes any
  // stale lifecycle files at `path` (the pre-recovery behaviour).
  bool recover = false;
  // Write a sealed snapshot after every N committed bytes (and after every
  // trim rewrite). 0 disables automatic snapshots; WriteSnapshot() still
  // works. Snapshots bound recovery replay to the post-snapshot tail.
  uint64_t snapshot_interval_bytes = 0;
  // Trim moves deleted rows into `<path>.archNNNNNN` (compressed, sealed)
  // instead of discarding them.
  bool archive_trimmed = false;
  // Identity under which snapshots and archives are sealed. Null = fall
  // back to `encryption_key` (or plaintext for sign-only logs).
  const sgx::Enclave* sealing_enclave = nullptr;
  sgx::SealPolicy seal_policy = sgx::SealPolicy::kMrSigner;
  // Fsync data files on flush and head/snapshot files on commit. Off only
  // for benchmarks that isolate CPU cost from storage latency.
  bool fsync = true;
};

class AuditLog {
 public:
  // What Recover() found and did, for logging/metrics and the logger's
  // ticket restoration.
  struct RecoveryInfo {
    bool had_state = false;        // any prior lifecycle file existed
    bool snapshot_loaded = false;  // restart skipped the pre-snapshot log
    size_t snapshot_entries = 0;
    size_t replayed_entries = 0;   // decrypted + re-chained from segments
    size_t discarded_records = 0;  // torn tail records dropped
    bool head_missing = false;     // .sig absent or torn; chain self-verified
    int64_t max_ticket = 0;        // highest logical time recovered
    int64_t recovery_nanos = 0;
  };

  // `signing_key` is the enclave's log key (provisioned under attestation).
  AuditLog(AuditLogOptions options, crypto::EcdsaPrivateKey signing_key);
  ~AuditLog();

  // Executes schema DDL against the in-enclave database.
  Status ExecuteSchema(const std::vector<std::string>& statements);

  // Restores the log from disk (kDisk with `options.recover`): loads the
  // newest valid snapshot, replays the tail segments through the hash
  // chain into the database, discards a torn tail record, verifies the
  // chain against the last committed head and re-commits. Must run after
  // ExecuteSchema and before the first Append. A fresh path recovers to an
  // empty log. No-op in kMemory mode.
  Status Recover(RecoveryInfo* info = nullptr);

  // Appends one tuple: inserts into the database, extends the hash chain
  // and (in kDisk mode) stages the framed — and, with a key, encrypted —
  // entry for the next flush. `wall_nanos` (0 = sample now) orders entries
  // across instances at merge time.
  Status Append(const std::string& table, db::Row values, int64_t wall_nanos = 0);

  // Writes all staged entries to the log file. A no-op in kMemory mode.
  // CommitHead flushes first, so a committed head always covers everything
  // on disk; callers only need this directly when inspecting the file
  // between commits.
  Status FlushPersisted();

  // Synchronously commits the current chain head: staged-entry flush +
  // signature + monotonic counter round + atomic head-file replace. In
  // kDisk mode the logger calls this once per drained batch.
  Status CommitHead();

  // Writes a sealed snapshot of the current committed state (database
  // image as framed entries + chain head + replay resume point). Called
  // automatically per `snapshot_interval_bytes`; exposed for tests and
  // benchmarks.
  Status WriteSnapshot();

  // Runs a read-only query (invariant checking).
  Result<db::QueryResult> Query(const std::string& sql);

  // Like Query, but narrows a SELECT's base-table scan to tuples with
  // time > floor (incremental invariant checking; see
  // db::Database::ExecuteWithTimeFloor for the exact conditions).
  Result<db::QueryResult> QueryWithTimeFloor(const std::string& sql, int64_t floor);

  // Runs the trimming queries, then rebuilds the hash chain over the
  // surviving entries and rewrites the persisted log. Every query must be
  // a DELETE (InvalidArgument otherwise, before any of them runs). The
  // rebuild (and the counter round it costs in kDisk mode) is skipped when
  // no query deleted anything. With `archive_trimmed`, the deleted entries
  // are first moved into a sealed archive segment. `deleted_out` /
  // `archived_out` (optional) receive the number of rows removed /
  // archived.
  Status Trim(const std::vector<std::string>& trimming_queries,
              size_t* deleted_out = nullptr, size_t* archived_out = nullptr);

  // What the signed head of a verified log claimed. Merging uses this to
  // detect two partials presenting the same (instance, counter round) —
  // a duplicated or forked shard log.
  struct VerifiedHeadInfo {
    uint64_t counter_value = 0;  // ROTE round the head was bound to
    uint64_t entry_count = 0;
    Bytes chain_head;
  };

  // Verifies a persisted log against tampering and rollback: recomputes
  // the chain across all segments (checking every segment header against
  // its neighbours and its records), checks the signature with
  // `log_public_key`, and compares the embedded counter against the ROTE
  // cluster. Returns the number of verified entries; `head_out` (optional)
  // receives what the verified head claimed.
  static Result<size_t> VerifyLogFile(const std::string& path,
                                      const crypto::EcdsaPublicKey& log_public_key,
                                      const rote::RoteCounter& counter,
                                      const Bytes& encryption_key = {},
                                      VerifiedHeadInfo* head_out = nullptr);

  // Reads (and decrypts) the entries of a persisted log WITHOUT verifying
  // the chain; callers that need evidence must run VerifyLogFile first
  // (log merging does).
  static Result<std::vector<LogEntry>> ReadVerifiedEntries(const std::string& path,
                                                           const Bytes& encryption_key = {});

  // Reads the trim archives of `path` in archive order (oldest first).
  // Sealed archives additionally need the sealing identity.
  static Result<std::vector<LogEntry>> ReadArchivedEntries(
      const std::string& path, const Bytes& encryption_key = {},
      const sgx::Enclave* sealing_enclave = nullptr,
      sgx::SealPolicy seal_policy = sgx::SealPolicy::kMrSigner);

  // The complete pre-trim history: archived entries + live entries, merged
  // by logical time. Offline auditors run VerifyLogFile first (the hot log
  // carries the signed head; archives are sealed/authenticated payloads).
  static Result<std::vector<LogEntry>> ReadFullHistory(
      const std::string& path, const Bytes& encryption_key = {},
      const sgx::Enclave* sealing_enclave = nullptr,
      sgx::SealPolicy seal_policy = sgx::SealPolicy::kMrSigner);

  db::Database& database() { return db_; }
  const db::Database& database() const { return db_; }
  const Bytes& chain_head() const { return chain_head_; }
  size_t entry_count() const { return entries_logged_; }
  // The live (post-trim) entries in append order. The cross-shard checker
  // snapshots this under the logger's drain lock for its consistent cut.
  const std::vector<LogEntry>& entries() const { return entries_; }
  uint64_t last_counter_value() const { return last_counter_value_; }
  rote::RoteCounter& counter() { return *counter_; }
  uint64_t persisted_bytes() const { return persisted_bytes_; }
  const AuditLogOptions& options() const { return options_; }
  uint32_t segment_count() const { return segment_count_; }
  uint32_t archive_count() const { return next_archive_index_; }

 private:
  struct StagedFrame {
    int64_t ticket = 0;
    size_t size = 0;      // frame bytes (length prefix + record)
    Bytes head_after;     // chain head after this entry
  };

  // Extends the chain with `entry` and, in kDisk mode, stages its framed
  // (and, with a key, encrypted) record: the entry is serialised once for
  // both.
  void ChainEntry(const LogEntry& entry);
  // Replaces every segment with the staged records of the rebuilt chain.
  Status RewritePersistedLog();
  // nonce || ciphertext || tag with a key configured, the plain serialised
  // entry otherwise.
  Bytes EncodeRecord(BytesView plain);
  SealContext MakeSealContext() const;
  Status OpenSegment(const Bytes& prev_head, int64_t first_ticket);
  Status CloseActiveSegment();
  Status MaybeSnapshot();

  AuditLogOptions options_;
  crypto::EcdsaPrivateKey signing_key_;
  db::Database db_;
  std::unique_ptr<rote::RoteCounter> counter_;
  // Cached cipher context + nonce source (null/unused without a key): one
  // key schedule + GHASH table for the log's lifetime instead of one per
  // record.
  std::unique_ptr<crypto::Aes128Gcm> cipher_;
  std::unique_ptr<crypto::GcmNonceSequence> nonce_seq_;

  Bytes chain_head_;  // SHA-256 of the chain so far
  size_t entries_logged_ = 0;
  uint64_t persisted_bytes_ = 0;
  // Framed records appended since the last flush (kDisk mode), plus the
  // per-record metadata the segment roller needs (ticket boundaries and
  // the chain head after each record).
  Bytes pending_persist_;
  std::vector<StagedFrame> pending_frames_;
  // Kept for chain recomputation on trim: the serialised entries in order.
  std::vector<LogEntry> entries_;

  // --- segment state ---
  uint32_t active_segment_ = 0;
  uint32_t segment_count_ = 0;           // segments existing on disk
  uint64_t active_segment_file_bytes_ = 0;  // includes the header
  bool active_segment_open_ = false;
  Bytes active_prev_head_;   // chain head before the active segment's first record
  int64_t active_first_ticket_ = 0;
  int64_t active_last_ticket_ = 0;
  Bytes last_flushed_head_;  // chain head after the last flushed record
  uint64_t rewrite_epoch_ = 0;
  uint64_t last_counter_value_ = 0;
  uint64_t bytes_since_snapshot_ = 0;
  uint32_t next_archive_index_ = 0;
  int64_t max_ticket_ = 0;
  bool recovered_ = false;
};

}  // namespace seal::core

#endif  // SRC_CORE_AUDIT_LOG_H_
