#include "src/core/audit_log.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <optional>
#include <utility>
#include <variant>

#include "src/common/clock.h"
#include "src/db/parser.h"
#include "src/obs/obs.h"

namespace seal::core {

namespace {

// One hash-chain step: head = SHA-256(head || serialised entry).
void ExtendChain(Bytes& head, BytesView record) {
  crypto::Sha256 h;
  h.Update(head);
  h.Update(record);
  crypto::Sha256Digest d = h.Finish();
  head.assign(d.begin(), d.end());
}

// Decrypts one framed record. `cipher` is the per-file cached context, or
// null for a sign-only log.
Result<Bytes> MaybeDecrypt(const crypto::Aes128Gcm* cipher, BytesView wire) {
  if (cipher == nullptr) {
    return Bytes(wire.begin(), wire.end());
  }
  if (wire.size() < crypto::kGcmNonceSize + crypto::kGcmTagSize) {
    return DataLoss("encrypted log record too short");
  }
  Bytes plain(wire.size() - crypto::kGcmNonceSize - crypto::kGcmTagSize);
  if (!cipher->OpenInto(wire.subspan(0, crypto::kGcmNonceSize), {},
                        wire.subspan(crypto::kGcmNonceSize), plain.data())) {
    return PermissionDenied("log record decryption failed");
  }
  return plain;
}

// Reads the framed record at `off` (a 4-byte length, then the record),
// decrypting it and strictly parsing the entry. `plain` receives the
// serialised entry the chain hashes.
Result<LogEntry> ReadFrame(const crypto::Aes128Gcm* cipher, BytesView data, size_t off,
                           Bytes& plain) {
  if (data.size() - off < 4) {
    return DataLoss("truncated record frame");
  }
  const uint32_t len = LoadBe32(data.data() + off);
  if (len > data.size() - off - 4) {
    return DataLoss("truncated record body");
  }
  auto opened = MaybeDecrypt(cipher, data.subspan(off + 4, len));
  if (!opened.ok()) {
    return opened.status();
  }
  plain = std::move(*opened);
  size_t entry_off = 0;
  auto entry = LogEntry::Deserialize(plain, entry_off);
  if (entry.ok() && entry_off != plain.size()) {
    return DataLoss("trailing bytes in log record");
  }
  return entry;
}

// Exact equality of type and content (Value::operator== equates 1 and 1.0).
bool SameRow(const db::Row& a, const db::Row& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    const db::Value& x = a[i];
    const db::Value& y = b[i];
    if (x.is_int() != y.is_int() || x.is_real() != y.is_real() || !(x == y)) {
      return false;
    }
    if (x.is_real()) {  // bitwise, so NaN and -0.0 match only themselves
      const double p = x.AsReal();
      const double q = y.AsReal();
      if (std::memcmp(&p, &q, sizeof(p)) != 0) {
        return false;
      }
    }
  }
  return true;
}

// Reads the signed head of the log at `path` and checks its signature.
Result<AuditLog::VerifiedHeadInfo> ReadSignedHead(const std::string& path,
                                                  const crypto::EcdsaPublicKey& key) {
  auto data = ReadFileBytes(HeadFilePath(path));
  if (!data.ok()) {
    return data.status();
  }
  constexpr size_t kSigned = crypto::kSha256DigestSize + 16;
  if (data->size() != kSigned + 64) {
    return DataLoss("malformed log head file");
  }
  auto sig = crypto::EcdsaSignature::Decode(BytesView(*data).subspan(kSigned, 64));
  if (!sig.has_value()) {
    return DataLoss("malformed head signature");
  }
  if (!key.Verify(BytesView(*data).subspan(0, kSigned), *sig)) {
    return PermissionDenied("log head signature invalid: tampered or forged log");
  }
  AuditLog::VerifiedHeadInfo head;
  head.chain_head.assign(data->begin(),
                         data->begin() + static_cast<ptrdiff_t>(crypto::kSha256DigestSize));
  head.counter_value = LoadBe64(data->data() + crypto::kSha256DigestSize);
  head.entry_count = LoadBe64(data->data() + crypto::kSha256DigestSize + 8);
  return head;
}

// What one pass over the persisted segments found. Verification uses the
// entries and the chain; recovery also uses the per-entry heads, the
// torn-tail repair and the state appending resumes from.
struct LogScan {
  std::vector<LogEntry> entries;  // snapshot entries + records read from disk
  size_t snapshot_entries = 0;
  Bytes chain;                    // head after all entries
  std::vector<Bytes> tail_heads;  // recovery: head after each record read
  uint64_t tail_bytes = 0;        // frame bytes read from disk
  size_t torn_records = 0;        // recovery: torn records at the physical end
  uint64_t rewrite_epoch = 0;
  // The last segment: its index, its size once the torn tail is cut (0 for
  // a torn header) and its header (none for a torn header).
  bool any_segment = false;
  uint32_t last_segment = 0;
  uint64_t last_segment_bytes = 0;
  std::optional<SegmentHeader> last_header;
};

// The one reader of the persisted log, shared by VerifyLogFile,
// ReadVerifiedEntries and Recover. It starts from `snapshot` (whose
// content must reproduce its claimed chain head) or from the empty chain,
// walks the segments checking each header against its neighbours and its
// records, decrypts and strictly parses every record and re-chains it.
// Only `recovering` accepts a torn tail, and only at the physical end of
// the last segment.
Result<LogScan> ScanPersisted(const std::string& path, const crypto::Aes128Gcm* cipher,
                              const SnapshotState* snapshot, bool recovering) {
  LogScan scan;
  scan.chain.assign(crypto::kSha256DigestSize, 0);
  if (snapshot != nullptr) {
    // Seals make snapshots tamper-evident, but a plaintext snapshot
    // (sign-only log) is not, and the claimed head is what the
    // committed-head check later trusts.
    for (const LogEntry& entry : snapshot->entries) {
      ExtendChain(scan.chain, entry.Serialize());
    }
    if (!ConstantTimeEqual(scan.chain, snapshot->chain_head)) {
      return DataLoss("snapshot content does not match its chain head");
    }
    scan.entries = snapshot->entries;
    scan.snapshot_entries = snapshot->entries.size();
    scan.rewrite_epoch = snapshot->rewrite_epoch;
  }

  const std::vector<uint32_t> segments = ListSegmentFiles(path);
  for (size_t i = 0; i < segments.size(); ++i) {
    if (segments[i] != i) {
      return DataLoss("missing log segment " + std::to_string(i));
    }
  }
  uint32_t start = 0;
  if (segments.empty()) {
    if (snapshot != nullptr && (snapshot->resume_segment > 0 || snapshot->resume_offset > 0)) {
      return DataLoss("snapshot resumes into missing segments");
    }
    // A log that committed a head before flushing any record has no
    // segments yet; its (empty) chain is checked against the head.
    if (!recovering && !FileExists(HeadFilePath(path))) {
      return NotFound("no audit log at " + path);
    }
    return scan;
  }
  if (snapshot != nullptr) {
    if (snapshot->resume_segment >= segments.size()) {
      return DataLoss("snapshot resumes past the last segment");
    }
    start = snapshot->resume_segment;
  }

  for (uint32_t seg = start; seg < segments.size(); ++seg) {
    const std::string seg_path = SegmentFilePath(path, seg);
    const bool tail_ok = recovering && seg + 1 == segments.size();
    auto data = ReadFileBytes(seg_path);
    if (!data.ok()) {
      return data.status();
    }
    scan.any_segment = true;
    scan.last_segment = seg;
    auto header = SegmentHeader::Decode(*data);
    if (!header.ok()) {
      // A crash between creating the last segment and syncing its header
      // leaves a file that holds no record; recovery drops it.
      if (!tail_ok || data->size() > kSegmentHeaderSize) {
        return header.status();
      }
      scan.torn_records += 1;
      scan.last_segment_bytes = 0;
      scan.last_header.reset();
      return scan;
    }
    if (header->index != seg) {
      return DataLoss("segment index mismatch in " + seg_path);
    }
    if (seg == start && snapshot == nullptr) {
      scan.rewrite_epoch = header->rewrite_epoch;
    } else if (header->rewrite_epoch != scan.rewrite_epoch) {
      return DataLoss("segment rewrite epoch mismatch in " + seg_path);
    }
    if (seg + 1 < segments.size() && header->closed == 0) {
      return PermissionDenied("non-final log segment not closed: " + seg_path);
    }
    size_t off = kSegmentHeaderSize;
    if (snapshot != nullptr && seg == start && snapshot->resume_offset > kSegmentHeaderSize) {
      if (snapshot->resume_offset > data->size()) {
        return DataLoss("snapshot resume offset beyond segment " + seg_path);
      }
      // Pre-snapshot records are skipped, so the chain at this segment's
      // start is unknown here; the committed-head check still covers it.
      off = static_cast<size_t>(snapshot->resume_offset);
    } else if (!ConstantTimeEqual(header->prev_head, scan.chain)) {
      return PermissionDenied("segment chain discontinuity at " + seg_path);
    }
    const bool whole_segment = off == kSegmentHeaderSize;
    const size_t first = scan.entries.size();

    while (off < data->size()) {
      Bytes plain;
      auto entry = ReadFrame(cipher, *data, off, plain);
      if (!entry.ok()) {
        // A frame cut short, or a last frame that does not open: a write
        // torn by a crash, legal only at the physical end of the last
        // segment.
        const size_t left = data->size() - off;
        if (!tail_ok || (left >= 4 && LoadBe32(data->data() + off) < left - 4)) {
          return entry.status();
        }
        scan.torn_records += 1;
        break;
      }
      ExtendChain(scan.chain, plain);
      if (recovering) {
        scan.tail_heads.push_back(scan.chain);
      }
      scan.entries.push_back(std::move(*entry));
      const size_t frame = 4 + LoadBe32(data->data() + off);
      scan.tail_bytes += frame;
      off += frame;
    }
    scan.last_segment_bytes = off;
    scan.last_header = *header;

    // The ticket range: an open segment has no last ticket yet; the first
    // ticket is checkable only when the segment was read from its start.
    if (header->closed == 0 && header->last_ticket != 0) {
      return PermissionDenied("open log segment claims a last ticket: " + seg_path);
    }
    if (scan.entries.size() > first &&
        ((whole_segment && header->first_ticket != scan.entries[first].time) ||
         (header->closed != 0 && header->last_ticket != scan.entries.back().time))) {
      return PermissionDenied("segment ticket range mismatch in " + seg_path);
    }
  }
  return scan;
}

}  // namespace

AuditLog::AuditLog(AuditLogOptions options, crypto::EcdsaPrivateKey signing_key)
    : options_(std::move(options)),
      signing_key_(std::move(signing_key)),
      counter_(std::make_unique<rote::RoteCounter>(options_.counter_options)),
      chain_head_(crypto::kSha256DigestSize, 0),
      active_prev_head_(crypto::kSha256DigestSize, 0),
      last_flushed_head_(crypto::kSha256DigestSize, 0) {
  if (!options_.encryption_key.empty()) {
    cipher_ = std::make_unique<crypto::Aes128Gcm>(options_.encryption_key);
    nonce_seq_ = std::make_unique<crypto::GcmNonceSequence>();
  }
  if (options_.mode == PersistenceMode::kDisk && !options_.path.empty() && !options_.recover) {
    // Not recovering: any lifecycle files at this path are stale state from
    // a previous run.
    RemoveLogFiles(options_.path);
  }
}

AuditLog::~AuditLog() { (void)FlushPersisted(); }

Status AuditLog::ExecuteSchema(const std::vector<std::string>& statements) {
  for (const std::string& sql : statements) {
    auto r = db_.Execute(sql);
    if (!r.ok()) {
      return r.status();
    }
  }
  return Status::Ok();
}

Status AuditLog::Append(const std::string& table, db::Row values, int64_t wall_nanos) {
  if (values.empty() || !values[0].is_int()) {
    return InvalidArgument("first column of every audit tuple must be the integer time");
  }
  if (options_.mode == PersistenceMode::kDisk && options_.recover && !recovered_) {
    return FailedPrecondition("Recover() must run before the first append");
  }
  LogEntry entry;
  entry.time = values[0].AsInt();
  entry.wall_nanos = wall_nanos != 0 ? wall_nanos : NowNanos();
  entry.table = table;
  entry.values = values;
  SEAL_RETURN_IF_ERROR(db_.InsertRow(table, std::move(values)));
  ChainEntry(entry);
  ++entries_logged_;
  max_ticket_ = std::max(max_ticket_, entry.time);
  entries_.push_back(std::move(entry));
  return Status::Ok();
}

Bytes AuditLog::EncodeRecord(BytesView plain) {
  if (cipher_ == nullptr) {
    return Bytes(plain.begin(), plain.end());
  }
  Bytes out(crypto::kGcmNonceSize + plain.size() + crypto::kGcmTagSize);
  nonce_seq_->Next(out.data());
  cipher_->SealInto(BytesView(out.data(), crypto::kGcmNonceSize), {}, plain,
                    out.data() + crypto::kGcmNonceSize);
  return out;
}

void AuditLog::ChainEntry(const LogEntry& entry) {
  const Bytes plain = entry.Serialize();
  ExtendChain(chain_head_, plain);
  if (options_.mode != PersistenceMode::kDisk) {
    return;
  }
  // Stage only: the write (one syscall for a whole batch) happens at
  // FlushPersisted/CommitHead, so a burst of appends costs one flush.
  const Bytes record = EncodeRecord(plain);
  AppendBe32(pending_persist_, static_cast<uint32_t>(record.size()));
  seal::Append(pending_persist_, record);
  persisted_bytes_ += 4 + record.size();
  // The segment roller records each frame's ticket and the chain head
  // after it.
  pending_frames_.push_back({entry.time, 4 + record.size(), chain_head_});
}

SealContext AuditLog::MakeSealContext() const {
  SealContext ctx;
  ctx.encryption_key = &options_.encryption_key;
  ctx.enclave = options_.sealing_enclave;
  ctx.policy = options_.seal_policy;
  return ctx;
}

Status AuditLog::OpenSegment(const Bytes& prev_head, int64_t first_ticket) {
  SegmentHeader header;
  header.index = active_segment_;
  header.rewrite_epoch = rewrite_epoch_;
  header.prev_head = prev_head;
  header.first_ticket = first_ticket;
  header.counter_value = last_counter_value_;
  SEAL_RETURN_IF_ERROR(DurableWriteFile(SegmentFilePath(options_.path, active_segment_),
                                        header.Encode(), /*append=*/false, options_.fsync));
  active_segment_open_ = true;
  active_segment_file_bytes_ = kSegmentHeaderSize;
  active_prev_head_ = prev_head;
  active_first_ticket_ = first_ticket;
  active_last_ticket_ = first_ticket;
  segment_count_ = std::max(segment_count_, active_segment_ + 1);
  SEAL_OBS_COUNTER("log_segments_total").Increment();
  return Status::Ok();
}

Status AuditLog::CloseActiveSegment() {
  SegmentHeader header;
  header.index = active_segment_;
  header.closed = 1;
  header.rewrite_epoch = rewrite_epoch_;
  header.prev_head = active_prev_head_;
  header.first_ticket = active_first_ticket_;
  header.last_ticket = active_last_ticket_;
  header.counter_value = last_counter_value_;
  SEAL_RETURN_IF_ERROR(UpdateSegmentHeader(SegmentFilePath(options_.path, active_segment_),
                                           header, options_.fsync));
  active_segment_open_ = false;
  SEAL_OBS_COUNTER("log_segment_rolls_total").Increment();
  return Status::Ok();
}

Status AuditLog::FlushPersisted() {
  if (options_.mode != PersistenceMode::kDisk || pending_persist_.empty()) {
    return Status::Ok();
  }
  const Bytes batch = std::move(pending_persist_);
  pending_persist_.clear();
  const std::vector<StagedFrame> frames = std::move(pending_frames_);
  pending_frames_.clear();
  bytes_since_snapshot_ += batch.size();
  // Frames are written in contiguous runs: one file append per segment
  // touched, rolling to a new segment when the active one would exceed the
  // byte budget (a segment always takes at least one record, so an
  // oversized frame gets a segment of its own).
  size_t off = 0;        // batch offset of the current frame
  size_t run_start = 0;  // batch offset of the first unwritten byte
  auto write_run = [&](size_t end) -> Status {
    if (end == run_start) {
      return Status::Ok();
    }
    SEAL_RETURN_IF_ERROR(DurableWriteFile(SegmentFilePath(options_.path, active_segment_),
                                          BytesView(batch).subspan(run_start, end - run_start),
                                          /*append=*/true, options_.fsync));
    active_segment_file_bytes_ += end - run_start;
    run_start = end;
    return Status::Ok();
  };
  for (const StagedFrame& frame : frames) {
    if (!active_segment_open_) {
      SEAL_RETURN_IF_ERROR(OpenSegment(last_flushed_head_, frame.ticket));
    } else {
      const uint64_t projected = active_segment_file_bytes_ + (off - run_start);
      if (projected > kSegmentHeaderSize && projected + frame.size > options_.segment_bytes) {
        SEAL_RETURN_IF_ERROR(write_run(off));
        SEAL_RETURN_IF_ERROR(CloseActiveSegment());
        ++active_segment_;
        SEAL_RETURN_IF_ERROR(OpenSegment(last_flushed_head_, frame.ticket));
      }
    }
    off += frame.size;
    active_last_ticket_ = frame.ticket;
    last_flushed_head_ = frame.head_after;
  }
  return write_run(off);
}

Status AuditLog::CommitHead() {
  SEAL_RETURN_IF_ERROR(FlushPersisted());
  if (options_.mode != PersistenceMode::kDisk) {
    // Nothing persisted means nothing to roll back: the counter round is
    // only needed when the log leaves the enclave.
    return Status::Ok();
  }
  // One monotonic-counter round per commit binds this head to "now".
  auto counter_value = counter_->Increment();
  if (!counter_value.ok()) {
    return counter_value.status();
  }
  last_counter_value_ = *counter_value;
  Bytes head;
  seal::Append(head, chain_head_);
  AppendBe64(head, *counter_value);
  AppendBe64(head, entries_logged_);
  crypto::EcdsaSignature sig = signing_key_.Sign(head);
  seal::Append(head, sig.Encode());
  // Atomic replace: a crash mid-commit leaves the previous complete head,
  // never a torn one (the old code rewrote the file in place).
  SEAL_RETURN_IF_ERROR(AtomicWriteFile(HeadFilePath(options_.path), head, options_.fsync));
  return MaybeSnapshot();
}

Status AuditLog::MaybeSnapshot() {
  if (options_.snapshot_interval_bytes == 0 ||
      bytes_since_snapshot_ < options_.snapshot_interval_bytes) {
    return Status::Ok();
  }
  return WriteSnapshot();
}

Status AuditLog::WriteSnapshot() {
  if (options_.mode != PersistenceMode::kDisk || options_.path.empty()) {
    return Status::Ok();
  }
  SEAL_RETURN_IF_ERROR(FlushPersisted());
  SnapshotState snapshot;
  snapshot.rewrite_epoch = rewrite_epoch_;
  snapshot.chain_head = chain_head_;
  snapshot.persisted_bytes = persisted_bytes_;
  snapshot.resume_segment = active_segment_;
  // Offset 0 = the segment does not exist yet; replay starts at its header
  // if it appears.
  snapshot.resume_offset = active_segment_open_ ? active_segment_file_bytes_ : 0;
  snapshot.counter_value = last_counter_value_;
  snapshot.max_ticket = max_ticket_;
  snapshot.entries = entries_;
  const int64_t t0 = NowNanos();
  SEAL_RETURN_IF_ERROR(WriteSnapshotFile(SnapshotFilePath(options_.path), snapshot,
                                         MakeSealContext(), options_.fsync));
  SEAL_OBS_HISTOGRAM("snapshot_seal_nanos").Observe(static_cast<uint64_t>(NowNanos() - t0));
  SEAL_OBS_COUNTER("log_snapshots_total").Increment();
  bytes_since_snapshot_ = 0;
  return Status::Ok();
}

Result<db::QueryResult> AuditLog::Query(const std::string& sql) { return db_.Execute(sql); }

Result<db::QueryResult> AuditLog::QueryWithTimeFloor(const std::string& sql, int64_t floor) {
  return db_.ExecuteWithTimeFloor(sql, floor);
}

Status AuditLog::Trim(const std::vector<std::string>& trimming_queries,
                      size_t* deleted_out, size_t* archived_out) {
  if (deleted_out != nullptr) {
    *deleted_out = 0;
  }
  if (archived_out != nullptr) {
    *archived_out = 0;
  }
  if (trimming_queries.empty()) {
    return Status::Ok();
  }
  // The rebuild below assumes trims only delete rows, so every statement
  // is checked before any of them runs.
  for (const std::string& sql : trimming_queries) {
    auto stmt = db::ParseStatement(sql);
    if (!stmt.ok()) {
      return stmt.status();
    }
    if (!std::holds_alternative<db::DeleteStmt>(*stmt)) {
      return InvalidArgument("trimming statement is not a DELETE: " + sql);
    }
  }
  size_t deleted = 0;
  for (const std::string& sql : trimming_queries) {
    auto r = db_.Execute(sql);
    if (!r.ok()) {
      return r.status();
    }
    deleted += r->affected;
  }
  if (deleted_out != nullptr) {
    *deleted_out = deleted;
  }
  if (deleted == 0) {
    // Nothing left the log: the chain, the persisted segments and the
    // counter binding are all still valid, so the O(n) rebuild would be
    // pure waste.
    return Status::Ok();
  }
  // A DELETE keeps a table's surviving rows in insertion order, so they
  // are a subsequence of that table's entries. One walk with a cursor per
  // table keeps an entry exactly when it equals its table's next surviving
  // row; identical rows thereby keep their own wall clocks, first in first
  // out.
  struct Cursor {
    const db::RowStore* rows = nullptr;
    size_t next = 0;
  };
  std::map<std::string, Cursor> cursors;
  for (const std::string& table : db_.TableNames()) {
    cursors[table].rows = db_.TableRows(table);
  }
  std::vector<char> keep(entries_.size(), 0);
  for (size_t i = 0; i < entries_.size(); ++i) {
    auto it = cursors.find(entries_[i].table);
    if (it == cursors.end()) {
      continue;
    }
    Cursor& c = it->second;
    if (c.next < c.rows->size() && SameRow((*c.rows)[c.next], entries_[i].values)) {
      keep[i] = 1;
      ++c.next;
    }
  }
  for (const auto& [table, c] : cursors) {
    if (c.next != c.rows->size()) {
      return Internal("trim left rows of table " + table + " without a log entry");
    }
  }
  std::vector<LogEntry> kept;
  std::vector<LogEntry> removed;
  for (size_t i = 0; i < entries_.size(); ++i) {
    (keep[i] ? kept : removed).push_back(std::move(entries_[i]));
  }
  entries_ = std::move(kept);
  if (options_.archive_trimmed && options_.mode == PersistenceMode::kDisk &&
      !options_.path.empty() && !removed.empty()) {
    SEAL_RETURN_IF_ERROR(WriteArchiveFile(ArchiveFilePath(options_.path, next_archive_index_),
                                          next_archive_index_, removed, MakeSealContext(),
                                          options_.fsync));
    ++next_archive_index_;
    SEAL_OBS_COUNTER("log_archives_total").Increment();
    SEAL_OBS_COUNTER("log_archived_entries_total").Add(removed.size());
    if (archived_out != nullptr) {
      *archived_out = removed.size();
    }
  }
  // Re-chain the survivors (§5.1: "LibSEAL recomputes the hashes of the
  // remaining log entries"), staging their records for the rewrite in the
  // same pass; anything staged before the trim is superseded.
  chain_head_.assign(crypto::kSha256DigestSize, 0);
  pending_persist_.clear();
  pending_frames_.clear();
  persisted_bytes_ = 0;
  for (const LogEntry& entry : entries_) {
    ChainEntry(entry);
  }
  entries_logged_ = entries_.size();
  if (options_.mode == PersistenceMode::kDisk) {
    ++rewrite_epoch_;
    SEAL_RETURN_IF_ERROR(RewritePersistedLog());
    SEAL_RETURN_IF_ERROR(CommitHead());
    if (options_.snapshot_interval_bytes > 0 && bytes_since_snapshot_ > 0) {
      // Fresh snapshot so no resume pointer into the pre-trim segments
      // survives the rewrite.
      SEAL_RETURN_IF_ERROR(WriteSnapshot());
    }
  }
  return Status::Ok();
}

Status AuditLog::RewritePersistedLog() {
  for (uint32_t index : ListSegmentFiles(options_.path)) {
    RemoveFileIfExists(SegmentFilePath(options_.path, index));
  }
  // The old snapshot's resume pointers reference deleted segments.
  RemoveFileIfExists(SnapshotFilePath(options_.path));
  active_segment_ = 0;
  active_segment_open_ = false;
  active_segment_file_bytes_ = 0;
  segment_count_ = 0;
  last_flushed_head_.assign(crypto::kSha256DigestSize, 0);
  return FlushPersisted();
}

Status AuditLog::Recover(RecoveryInfo* info) {
  RecoveryInfo scratch;
  RecoveryInfo& out = info != nullptr ? *info : scratch;
  out = RecoveryInfo{};
  if (options_.mode != PersistenceMode::kDisk || options_.path.empty()) {
    recovered_ = true;
    return Status::Ok();
  }
  if (recovered_) {
    return FailedPrecondition("Recover() already ran");
  }
  if (entries_logged_ != 0) {
    return FailedPrecondition("Recover() must precede the first append");
  }
  const int64_t t0 = NowNanos();

  // 1. The committed head. It may be missing or torn — the chain then
  //    self-verifies through the segment headers and whatever follows the
  //    last durable commit is kept (it was authenticated by us).
  const bool head_exists = FileExists(HeadFilePath(options_.path));
  auto head = ReadSignedHead(options_.path, signing_key_.public_key());
  out.head_missing = !head.ok();

  // 2. The newest snapshot, if present and its seal opens under our
  //    identity. Any failure just falls back to a full replay.
  std::optional<SnapshotState> snapshot;
  if (FileExists(SnapshotFilePath(options_.path))) {
    auto snap = ReadSnapshotFile(SnapshotFilePath(options_.path), MakeSealContext());
    if (snap.ok()) {
      snapshot = std::move(*snap);
    }
  }

  out.had_state =
      head_exists || snapshot.has_value() || !ListSegmentFiles(options_.path).empty();

  // 3. Replay, snapshot plan first. The committed head must appear in the
  //    recovered chain exactly at its entry count; a stale or forged
  //    snapshot fails this and triggers the full replay.
  auto attempt = [&](const SnapshotState* snap) -> Result<LogScan> {
    auto rr = ScanPersisted(options_.path, cipher_.get(), snap, /*recovering=*/true);
    if (!rr.ok() || !head.ok()) {
      return rr;
    }
    const uint64_t stored_count = head->entry_count;
    if (stored_count < rr->snapshot_entries) {
      return DataLoss("snapshot is newer than the committed head");
    }
    if (stored_count > rr->entries.size()) {
      return DataLoss("committed head covers more entries than the log holds");
    }
    Bytes at(crypto::kSha256DigestSize, 0);
    if (stored_count == rr->snapshot_entries) {
      if (snap != nullptr) {
        at = snap->chain_head;
      }
    } else {
      at = rr->tail_heads[stored_count - rr->snapshot_entries - 1];
    }
    if (!ConstantTimeEqual(at, head->chain_head)) {
      return PermissionDenied("recovered chain does not match the committed head");
    }
    return rr;
  };
  Result<LogScan> rr = attempt(snapshot ? &*snapshot : nullptr);
  if (!rr.ok() && snapshot.has_value()) {
    snapshot.reset();
    rr = attempt(nullptr);
  }
  if (!rr.ok()) {
    return rr.status();
  }

  // 4. Cut the torn tail so the next append lands cleanly. A last segment
  //    left without records is removed and reopened by the next flush: its
  //    header would otherwise claim a first ticket no record carries.
  const std::string last_path = SegmentFilePath(options_.path, rr->last_segment);
  const bool drop_last = rr->any_segment && rr->last_segment_bytes <= kSegmentHeaderSize;
  if (drop_last) {
    RemoveFileIfExists(last_path);
  } else if (rr->torn_records > 0) {
    SEAL_RETURN_IF_ERROR(TruncateFile(last_path, rr->last_segment_bytes));
  }

  // 5. Rebuild the database and in-memory state.
  for (const LogEntry& entry : rr->entries) {
    SEAL_RETURN_IF_ERROR(db_.InsertRow(entry.table, entry.values));
  }
  entries_ = std::move(rr->entries);
  entries_logged_ = entries_.size();
  chain_head_ = rr->chain;
  last_flushed_head_ = chain_head_;
  persisted_bytes_ = (snapshot ? snapshot->persisted_bytes : 0) + rr->tail_bytes;
  max_ticket_ = 0;
  for (const LogEntry& entry : entries_) {
    max_ticket_ = std::max(max_ticket_, entry.time);
  }
  const std::vector<uint32_t> archives = ListArchiveFiles(options_.path);
  next_archive_index_ = archives.empty() ? 0 : archives.back() + 1;
  rewrite_epoch_ = rr->rewrite_epoch;
  if (drop_last) {
    active_segment_ = rr->last_segment;
    segment_count_ = rr->last_segment;
  } else if (rr->any_segment && rr->last_header->closed != 0) {
    // Crash after a roll closed this segment but before the next one was
    // opened.
    active_segment_ = rr->last_segment + 1;
    segment_count_ = rr->last_segment + 1;
  } else if (rr->any_segment) {
    active_segment_ = rr->last_segment;
    segment_count_ = rr->last_segment + 1;
    active_segment_open_ = true;
    active_segment_file_bytes_ = rr->last_segment_bytes;
    active_prev_head_ = rr->last_header->prev_head;
    active_first_ticket_ = rr->last_header->first_ticket;
    active_last_ticket_ = entries_.back().time;
  }
  bytes_since_snapshot_ = 0;
  recovered_ = true;

  out.snapshot_loaded = snapshot.has_value();
  out.snapshot_entries = rr->snapshot_entries;
  out.replayed_entries = entries_.size() - rr->snapshot_entries;
  out.discarded_records = rr->torn_records;
  out.max_ticket = max_ticket_;

  // 6. Re-commit: the restarted ROTE cluster starts a fresh counter epoch,
  //    so the recovered head must be rebound to a value this cluster will
  //    report (and a missing/torn head replaced).
  if (out.had_state) {
    SEAL_RETURN_IF_ERROR(CommitHead());
  }

  out.recovery_nanos = NowNanos() - t0;
  SEAL_OBS_COUNTER("log_recovery_replayed_entries").Add(out.replayed_entries);
  SEAL_OBS_COUNTER("log_recovery_discarded_records_total").Add(out.discarded_records);
  SEAL_OBS_HISTOGRAM("log_recovery_nanos").Observe(static_cast<uint64_t>(out.recovery_nanos));
  return Status::Ok();
}

Result<std::vector<LogEntry>> AuditLog::ReadVerifiedEntries(const std::string& path,
                                                            const Bytes& encryption_key) {
  std::optional<crypto::Aes128Gcm> cipher;
  if (!encryption_key.empty()) {
    cipher.emplace(encryption_key);
  }
  auto scan = ScanPersisted(path, cipher ? &*cipher : nullptr, nullptr, /*recovering=*/false);
  if (!scan.ok()) {
    return scan.status();
  }
  return std::move(scan->entries);
}

Result<size_t> AuditLog::VerifyLogFile(const std::string& path,
                                       const crypto::EcdsaPublicKey& log_public_key,
                                       const rote::RoteCounter& counter,
                                       const Bytes& encryption_key,
                                       VerifiedHeadInfo* head_out) {
  std::optional<crypto::Aes128Gcm> cipher;
  if (!encryption_key.empty()) {
    cipher.emplace(encryption_key);
  }
  auto scan = ScanPersisted(path, cipher ? &*cipher : nullptr, nullptr, /*recovering=*/false);
  if (!scan.ok()) {
    return scan.status();
  }
  auto head = ReadSignedHead(path, log_public_key);
  if (!head.ok()) {
    return head.status();
  }
  if (!ConstantTimeEqual(head->chain_head, scan->chain)) {
    return PermissionDenied("hash chain mismatch: log entries modified");
  }
  if (head->entry_count != scan->entries.size()) {
    return PermissionDenied("entry count mismatch");
  }
  auto current = counter.Read();
  if (!current.ok()) {
    return current.status();
  }
  if (head->counter_value != *current) {
    return PermissionDenied("rollback detected: counter " + std::to_string(head->counter_value) +
                            " but cluster reports " + std::to_string(*current));
  }
  if (head_out != nullptr) {
    *head_out = std::move(*head);
  }
  return scan->entries.size();
}

Result<std::vector<LogEntry>> AuditLog::ReadArchivedEntries(const std::string& path,
                                                            const Bytes& encryption_key,
                                                            const sgx::Enclave* sealing_enclave,
                                                            sgx::SealPolicy seal_policy) {
  SealContext ctx;
  ctx.encryption_key = &encryption_key;
  ctx.enclave = sealing_enclave;
  ctx.policy = seal_policy;
  std::vector<LogEntry> all;
  const std::vector<uint32_t> archives = ListArchiveFiles(path);
  for (size_t i = 0; i < archives.size(); ++i) {
    if (archives[i] != i) {
      return DataLoss("missing trim archive " + std::to_string(i));
    }
    auto entries = ReadArchiveFile(ArchiveFilePath(path, static_cast<uint32_t>(i)), ctx);
    if (!entries.ok()) {
      return entries.status();
    }
    all.insert(all.end(), std::make_move_iterator(entries->begin()),
               std::make_move_iterator(entries->end()));
  }
  return all;
}

Result<std::vector<LogEntry>> AuditLog::ReadFullHistory(const std::string& path,
                                                        const Bytes& encryption_key,
                                                        const sgx::Enclave* sealing_enclave,
                                                        sgx::SealPolicy seal_policy) {
  auto archived = ReadArchivedEntries(path, encryption_key, sealing_enclave, seal_policy);
  if (!archived.ok()) {
    return archived.status();
  }
  auto live = ReadVerifiedEntries(path, encryption_key);
  if (!live.ok()) {
    return live.status();
  }
  std::vector<LogEntry> all = std::move(*archived);
  all.insert(all.end(), std::make_move_iterator(live->begin()),
             std::make_move_iterator(live->end()));
  std::stable_sort(all.begin(), all.end(),
                   [](const LogEntry& a, const LogEntry& b) { return a.time < b.time; });
  return all;
}

}  // namespace seal::core
