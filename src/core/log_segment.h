// Durable on-disk lifecycle of the audit log (ROADMAP item 3): file
// helpers that actually reach the platter (fsync on data files and their
// directory, atomic replace-by-rename for head/snapshot files), the log
// entry wire codec, the segmented-log layout (`<base>.segNNNNNN` files
// with chained headers), compressed sealed trim archives
// (`<base>.archNNNNNN`) and sealed seadb snapshots (`<base>.snap`).
//
// Snapshot and archive payloads are protected by, in order of preference:
// the enclave-identity-derived sealing key (src/sgx/sealing.h, MRSIGNER by
// default so sealed logs move across machines, §6.3), the log's symmetric
// encryption key, or nothing (sign-only logs on a trusted disk).
#ifndef SRC_CORE_LOG_SEGMENT_H_
#define SRC_CORE_LOG_SEGMENT_H_

#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/db/value.h"
#include "src/sgx/sealing.h"

namespace seal::core {

// One serialised log entry, the hash-chain unit.
struct LogEntry {
  int64_t time = 0;       // per-instance logical timestamp (primary key)
  int64_t wall_nanos = 0; // wall clock at append: orders entries ACROSS
                          // instances when partial logs are merged (§3.2)
  std::string table;
  db::Row values;  // full row, including time

  Bytes Serialize() const;
  // Strict: validates value payloads (digits-only integers, fully-consumed
  // reals, length-checked text) and fails on truncation at any boundary.
  static Result<LogEntry> Deserialize(BytesView in, size_t& off);
};

// --- durable file helpers -------------------------------------------------

// Writes (or appends) and fsyncs the file; with `create` also fsyncs the
// containing directory so the new directory entry survives a crash.
Status DurableWriteFile(const std::string& path, BytesView data, bool append, bool sync);

// Crash-atomic replace: writes `<path>.tmp`, fsyncs it, renames over
// `path` and fsyncs the directory. A reader sees either the old or the
// new complete file, never a torn mixture.
Status AtomicWriteFile(const std::string& path, BytesView data, bool sync);

Result<Bytes> ReadFileBytes(const std::string& path);
Result<uint64_t> FileSizeBytes(const std::string& path);
bool FileExists(const std::string& path);
void RemoveFileIfExists(const std::string& path);
// Truncates `path` to `size` bytes (discarding a torn tail record).
Status TruncateFile(const std::string& path, uint64_t size);
Status FsyncParentDir(const std::string& path);

// --- layout ---------------------------------------------------------------

std::string SegmentFilePath(const std::string& base, uint32_t index);
std::string ArchiveFilePath(const std::string& base, uint32_t index);
std::string SnapshotFilePath(const std::string& base);
std::string HeadFilePath(const std::string& base);

// Sorted indices of existing `<base>.seg*` / `<base>.arch*` files.
std::vector<uint32_t> ListSegmentFiles(const std::string& base);
std::vector<uint32_t> ListArchiveFiles(const std::string& base);

// Removes every lifecycle file of `base` (head, snapshot, segments,
// archives). Used when a log is opened without recovery.
void RemoveLogFiles(const std::string& base);

// --- segment header -------------------------------------------------------

inline constexpr size_t kSegmentHeaderSize = 88;

// Every field but two is checked by the log scanner against the other
// segments or the segment's own records. `counter_value` is never read,
// and the `rewrite_epoch` of a lone segment has nothing to agree with:
// neither is evidence (DESIGN.md §3g).
struct SegmentHeader {
  uint32_t version = 1;
  uint32_t index = 0;
  uint32_t closed = 0;          // 1 once rolled; the file is then immutable
  uint64_t rewrite_epoch = 0;   // bumped by every trim rewrite
  Bytes prev_head;              // chain head before this segment's first record
  int64_t first_ticket = 0;
  int64_t last_ticket = 0;      // filled at close; 0 while open
  uint64_t counter_value = 0;   // last committed ROTE value at creation

  Bytes Encode() const;
  // Rejects a bad magic or version, a `closed` flag other than 0 or 1 and
  // a nonzero reserved word.
  static Result<SegmentHeader> Decode(BytesView in);
};

// Rewrites the header at the front of an existing segment file (close).
Status UpdateSegmentHeader(const std::string& path, const SegmentHeader& header, bool sync);

// --- sealed blobs (snapshots + archives) ----------------------------------

// How a snapshot/archive payload is protected on disk.
enum class BlobProtection : uint32_t {
  kPlain = 0,
  kKey = 1,     // AES-GCM under the log encryption key
  kSealed = 2,  // enclave-identity sealing (src/sgx/sealing.h)
};

struct SealContext {
  const Bytes* encryption_key = nullptr;      // may be null/empty
  const sgx::Enclave* enclave = nullptr;      // preferred when set
  sgx::SealPolicy policy = sgx::SealPolicy::kMrSigner;
};

// --- trim archives --------------------------------------------------------

Status WriteArchiveFile(const std::string& path, uint32_t index,
                        const std::vector<LogEntry>& entries, const SealContext& ctx, bool sync);
Result<std::vector<LogEntry>> ReadArchiveFile(const std::string& path, const SealContext& ctx);

// --- sealed snapshots -----------------------------------------------------

struct SnapshotState {
  uint64_t rewrite_epoch = 0;
  Bytes chain_head;           // chain head over `entries`
  uint64_t persisted_bytes = 0;
  uint32_t resume_segment = 0;  // replay resumes at this segment...
  uint64_t resume_offset = 0;   // ...at this byte offset (file offset)
  uint64_t counter_value = 0;
  int64_t max_ticket = 0;
  std::vector<LogEntry> entries;
};

Status WriteSnapshotFile(const std::string& path, const SnapshotState& snapshot,
                         const SealContext& ctx, bool sync);
Result<SnapshotState> ReadSnapshotFile(const std::string& path, const SealContext& ctx);

}  // namespace seal::core

#endif  // SRC_CORE_LOG_SEGMENT_H_
