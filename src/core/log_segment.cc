#include "src/core/log_segment.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/common/compress.h"
#include "src/crypto/drbg.h"
#include "src/crypto/gcm.h"

namespace seal::core {

namespace {

constexpr char kSegmentMagic[8] = {'S', 'E', 'A', 'L', 'S', 'E', 'G', '1'};
constexpr char kArchiveMagic[8] = {'S', 'E', 'A', 'L', 'A', 'R', 'C', '1'};
constexpr char kSnapshotMagic[8] = {'S', 'E', 'A', 'L', 'S', 'N', 'P', '1'};
constexpr size_t kArchiveHeaderSize = 8 + 4 + 4 + 4 + 4 + 8 + 8;
constexpr size_t kSnapshotHeaderSize = 8 + 4 + 4;
// Decompression allocation cap for sealed payloads (well above any log the
// in-enclave database could hold).
constexpr size_t kMaxBlobRawSize = size_t{1} << 33;

std::string ParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) {
    return ".";
  }
  if (slash == 0) {
    return "/";
  }
  return path.substr(0, slash);
}

std::string BaseName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::string IndexedPath(const std::string& base, const char* infix, uint32_t index) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%06u", index);
  return base + infix + buf;
}

// Existing `<base><infix>NNN...` files, as sorted indices.
std::vector<uint32_t> ListIndexedFiles(const std::string& base, const char* infix) {
  std::vector<uint32_t> indices;
  const std::string prefix = BaseName(base) + infix;
  DIR* dir = ::opendir(ParentDir(base).c_str());
  if (dir == nullptr) {
    return indices;
  }
  while (struct dirent* ent = ::readdir(dir)) {
    const std::string name = ent->d_name;
    if (name.size() <= prefix.size() || name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    const char* digits = name.c_str() + prefix.size();
    uint32_t index = 0;
    auto [end, ec] = std::from_chars(digits, name.c_str() + name.size(), index);
    if (ec == std::errc() && end == name.c_str() + name.size()) {
      indices.push_back(index);
    }
  }
  ::closedir(dir);
  std::sort(indices.begin(), indices.end());
  return indices;
}

Status FsyncStream(std::FILE* f, const std::string& path) {
  if (std::fflush(f) != 0 || ::fsync(::fileno(f)) != 0) {
    return Unavailable("fsync failed for " + path);
  }
  return Status::Ok();
}

// Protects a plain payload per the context's preference order; reports
// which protection was applied so the reader can demand the same one.
Bytes ProtectBlob(const SealContext& ctx, BytesView plain, BytesView aad,
                  BlobProtection* used) {
  if (ctx.enclave != nullptr) {
    *used = BlobProtection::kSealed;
    return sgx::SealData(*ctx.enclave, ctx.policy, plain, aad);
  }
  if (ctx.encryption_key != nullptr && !ctx.encryption_key->empty()) {
    *used = BlobProtection::kKey;
    crypto::Aes128Gcm gcm(*ctx.encryption_key);
    Bytes nonce = crypto::ProcessDrbg().Generate(crypto::kGcmNonceSize);
    Bytes out = nonce;
    Append(out, gcm.Seal(nonce, aad, plain));
    return out;
  }
  *used = BlobProtection::kPlain;
  return Bytes(plain.begin(), plain.end());
}

Result<Bytes> OpenBlob(const SealContext& ctx, BlobProtection protection, BytesView blob,
                       BytesView aad) {
  switch (protection) {
    case BlobProtection::kSealed:
      if (ctx.enclave == nullptr) {
        return PermissionDenied("blob is enclave-sealed but no enclave identity given");
      }
      return sgx::UnsealData(*ctx.enclave, ctx.policy, blob, aad);
    case BlobProtection::kKey: {
      if (ctx.encryption_key == nullptr || ctx.encryption_key->empty()) {
        return PermissionDenied("blob is key-encrypted but no key given");
      }
      if (blob.size() < crypto::kGcmNonceSize + crypto::kGcmTagSize) {
        return DataLoss("encrypted blob too short");
      }
      crypto::Aes128Gcm gcm(*ctx.encryption_key);
      auto opened = gcm.Open(blob.subspan(0, crypto::kGcmNonceSize), aad,
                             blob.subspan(crypto::kGcmNonceSize));
      if (!opened.has_value()) {
        return PermissionDenied("blob decryption failed");
      }
      return *opened;
    }
    case BlobProtection::kPlain:
      return Bytes(blob.begin(), blob.end());
  }
  return DataLoss("unknown blob protection");
}

void AppendFramedPlain(Bytes& out, const LogEntry& entry) {
  Bytes wire = entry.Serialize();
  AppendBe32(out, static_cast<uint32_t>(wire.size()));
  Append(out, wire);
}

Result<std::vector<LogEntry>> ParseFramedEntries(BytesView in, size_t expected_count) {
  std::vector<LogEntry> entries;
  size_t off = 0;
  while (off < in.size()) {
    if (in.size() - off < 4) {
      return DataLoss("truncated entry frame");
    }
    const uint32_t len = LoadBe32(in.data() + off);
    off += 4;
    if (len > in.size() - off) {
      return DataLoss("truncated entry body");
    }
    size_t entry_off = 0;
    auto entry = LogEntry::Deserialize(in.subspan(off, len), entry_off);
    if (!entry.ok()) {
      return entry.status();
    }
    if (entry_off != len) {
      return DataLoss("trailing bytes in entry frame");
    }
    off += len;
    entries.push_back(std::move(*entry));
  }
  if (entries.size() != expected_count) {
    return DataLoss("entry count mismatch in framed payload");
  }
  return entries;
}

}  // namespace

// --- LogEntry wire codec --------------------------------------------------

Bytes LogEntry::Serialize() const {
  Bytes out;
  AppendBe64(out, static_cast<uint64_t>(time));
  AppendBe64(out, static_cast<uint64_t>(wall_nanos));
  AppendBe32(out, static_cast<uint32_t>(table.size()));
  Append(out, table);
  AppendBe32(out, static_cast<uint32_t>(values.size()));
  for (const db::Value& v : values) {
    std::string s = v.Serialize();
    AppendBe32(out, static_cast<uint32_t>(s.size()));
    Append(out, s);
  }
  return out;
}

Result<LogEntry> LogEntry::Deserialize(BytesView in, size_t& off) {
  LogEntry entry;
  if (off > in.size() || in.size() - off < 20) {
    return DataLoss("log entry truncated");
  }
  entry.time = static_cast<int64_t>(LoadBe64(in.data() + off));
  off += 8;
  entry.wall_nanos = static_cast<int64_t>(LoadBe64(in.data() + off));
  off += 8;
  const uint32_t table_len = LoadBe32(in.data() + off);
  off += 4;
  if (table_len > in.size() - off || in.size() - off - table_len < 4) {
    return DataLoss("log entry truncated in table name");
  }
  entry.table.assign(reinterpret_cast<const char*>(in.data() + off), table_len);
  off += table_len;
  const uint32_t nvalues = LoadBe32(in.data() + off);
  off += 4;
  // Each value needs at least a 4-byte length and a 1-byte tag; a count
  // that cannot fit in the remaining bytes is hostile, not truncated data.
  if (nvalues > (in.size() - off) / 5) {
    return DataLoss("log entry declares more values than the frame holds");
  }
  entry.values.reserve(nvalues);
  for (uint32_t i = 0; i < nvalues; ++i) {
    if (in.size() - off < 4) {
      return DataLoss("log entry truncated in value length");
    }
    const uint32_t len = LoadBe32(in.data() + off);
    off += 4;
    if (len == 0) {
      return DataLoss("zero-length value");
    }
    if (len > in.size() - off) {
      return DataLoss("log entry truncated in value");
    }
    std::string s(reinterpret_cast<const char*>(in.data() + off), len);
    off += len;
    // Value::Serialize format: N | I<int> | R<real> | T<len>:<text>.
    switch (s[0]) {
      case 'N':
        if (s.size() != 1) {
          return DataLoss("malformed null value");
        }
        entry.values.push_back(db::Value::Null());
        break;
      case 'I': {
        int64_t v = 0;
        auto [end, ec] = std::from_chars(s.data() + 1, s.data() + s.size(), v);
        if (ec != std::errc() || end != s.data() + s.size()) {
          return DataLoss("malformed integer value");
        }
        entry.values.push_back(db::Value(v));
        break;
      }
      case 'R': {
        char* end = nullptr;
        const double v = std::strtod(s.c_str() + 1, &end);
        if (s.size() < 2 || end != s.c_str() + s.size()) {
          return DataLoss("malformed real value");
        }
        entry.values.push_back(db::Value(v));
        break;
      }
      case 'T': {
        const size_t colon = s.find(':');
        if (colon == std::string::npos) {
          return DataLoss("malformed text value");
        }
        size_t text_len = 0;
        auto [end, ec] = std::from_chars(s.data() + 1, s.data() + colon, text_len);
        if (ec != std::errc() || end != s.data() + colon ||
            text_len != s.size() - colon - 1) {
          return DataLoss("text value length mismatch");
        }
        entry.values.push_back(db::Value(s.substr(colon + 1)));
        break;
      }
      default:
        return DataLoss("unknown value tag");
    }
  }
  return entry;
}

// --- durable file helpers -------------------------------------------------

Status DurableWriteFile(const std::string& path, BytesView data, bool append, bool sync) {
  const bool existed = FileExists(path);
  std::FILE* f = std::fopen(path.c_str(), append ? "ab" : "wb");
  if (f == nullptr) {
    return Unavailable("cannot open " + path);
  }
  const size_t written = data.empty() ? 0 : std::fwrite(data.data(), 1, data.size(), f);
  Status synced = sync ? FsyncStream(f, path) : Status::Ok();
  std::fclose(f);
  if (written != data.size()) {
    return DataLoss("short write to " + path);
  }
  if (!synced.ok()) {
    return synced;
  }
  if (sync && !existed) {
    return FsyncParentDir(path);
  }
  return Status::Ok();
}

Status AtomicWriteFile(const std::string& path, BytesView data, bool sync) {
  const std::string tmp = path + ".tmp";
  SEAL_RETURN_IF_ERROR(DurableWriteFile(tmp, data, /*append=*/false, sync));
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    RemoveFileIfExists(tmp);
    return Unavailable("cannot rename " + tmp + " over " + path);
  }
  if (sync) {
    return FsyncParentDir(path);
  }
  return Status::Ok();
}

Result<Bytes> ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return NotFound("cannot open " + path);
  }
  Bytes data;
  uint8_t buf[65536];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    data.insert(data.end(), buf, buf + n);
  }
  std::fclose(f);
  return data;
}

Result<uint64_t> FileSizeBytes(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return NotFound("cannot stat " + path);
  }
  return static_cast<uint64_t>(st.st_size);
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

void RemoveFileIfExists(const std::string& path) { (void)std::remove(path.c_str()); }

Status TruncateFile(const std::string& path, uint64_t size) {
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
    return Unavailable("cannot truncate " + path);
  }
  return Status::Ok();
}

Status FsyncParentDir(const std::string& path) {
  const int fd = ::open(ParentDir(path).c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    // Some filesystems refuse O_RDONLY on directories; degrade gracefully
    // rather than failing the write that already reached the file.
    return Status::Ok();
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Unavailable("directory fsync failed for " + path);
  }
  return Status::Ok();
}

// --- layout ---------------------------------------------------------------

std::string SegmentFilePath(const std::string& base, uint32_t index) {
  return IndexedPath(base, ".seg", index);
}

std::string ArchiveFilePath(const std::string& base, uint32_t index) {
  return IndexedPath(base, ".arch", index);
}

std::string SnapshotFilePath(const std::string& base) { return base + ".snap"; }

std::string HeadFilePath(const std::string& base) { return base + ".sig"; }

std::vector<uint32_t> ListSegmentFiles(const std::string& base) {
  return ListIndexedFiles(base, ".seg");
}

std::vector<uint32_t> ListArchiveFiles(const std::string& base) {
  return ListIndexedFiles(base, ".arch");
}

void RemoveLogFiles(const std::string& base) {
  RemoveFileIfExists(HeadFilePath(base));
  RemoveFileIfExists(HeadFilePath(base) + ".tmp");
  RemoveFileIfExists(SnapshotFilePath(base));
  RemoveFileIfExists(SnapshotFilePath(base) + ".tmp");
  for (uint32_t index : ListSegmentFiles(base)) {
    RemoveFileIfExists(SegmentFilePath(base, index));
  }
  for (uint32_t index : ListArchiveFiles(base)) {
    RemoveFileIfExists(ArchiveFilePath(base, index));
  }
}

// --- segment header -------------------------------------------------------

Bytes SegmentHeader::Encode() const {
  Bytes out;
  out.insert(out.end(), kSegmentMagic, kSegmentMagic + sizeof(kSegmentMagic));
  AppendBe32(out, version);
  AppendBe32(out, index);
  AppendBe32(out, closed);
  AppendBe32(out, 0);  // reserved
  AppendBe64(out, rewrite_epoch);
  Bytes head = prev_head;
  head.resize(32, 0);
  Append(out, head);
  AppendBe64(out, static_cast<uint64_t>(first_ticket));
  AppendBe64(out, static_cast<uint64_t>(last_ticket));
  AppendBe64(out, counter_value);
  return out;
}

Result<SegmentHeader> SegmentHeader::Decode(BytesView in) {
  if (in.size() < kSegmentHeaderSize) {
    return DataLoss("segment header truncated");
  }
  if (std::memcmp(in.data(), kSegmentMagic, sizeof(kSegmentMagic)) != 0) {
    return DataLoss("bad segment magic");
  }
  SegmentHeader header;
  size_t off = 8;
  header.version = LoadBe32(in.data() + off);
  off += 4;
  if (header.version != 1) {
    return DataLoss("unsupported segment version");
  }
  header.index = LoadBe32(in.data() + off);
  off += 4;
  header.closed = LoadBe32(in.data() + off);
  off += 4;
  if (header.closed > 1) {
    return DataLoss("bad segment closed flag");
  }
  if (LoadBe32(in.data() + off) != 0) {
    return DataLoss("segment header reserved word set");
  }
  off += 4;
  header.rewrite_epoch = LoadBe64(in.data() + off);
  off += 8;
  header.prev_head.assign(in.begin() + static_cast<ptrdiff_t>(off),
                          in.begin() + static_cast<ptrdiff_t>(off + 32));
  off += 32;
  header.first_ticket = static_cast<int64_t>(LoadBe64(in.data() + off));
  off += 8;
  header.last_ticket = static_cast<int64_t>(LoadBe64(in.data() + off));
  off += 8;
  header.counter_value = LoadBe64(in.data() + off);
  return header;
}

Status UpdateSegmentHeader(const std::string& path, const SegmentHeader& header, bool sync) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  if (f == nullptr) {
    return Unavailable("cannot reopen segment " + path);
  }
  Bytes wire = header.Encode();
  const size_t written = std::fwrite(wire.data(), 1, wire.size(), f);
  Status synced = sync ? FsyncStream(f, path) : Status::Ok();
  std::fclose(f);
  if (written != wire.size()) {
    return DataLoss("short header rewrite in " + path);
  }
  return synced;
}

// --- trim archives --------------------------------------------------------

Status WriteArchiveFile(const std::string& path, uint32_t index,
                        const std::vector<LogEntry>& entries, const SealContext& ctx,
                        bool sync) {
  Bytes framed;
  for (const LogEntry& entry : entries) {
    AppendFramedPlain(framed, entry);
  }
  const Bytes compressed = LzCompress(framed);
  Bytes header;
  header.insert(header.end(), kArchiveMagic, kArchiveMagic + sizeof(kArchiveMagic));
  AppendBe32(header, 1);  // version
  AppendBe32(header, index);
  BlobProtection used = BlobProtection::kPlain;
  // The protection tag participates in the AAD via the header, so we must
  // know it before sealing: probe with a dry run of the preference order.
  if (ctx.enclave != nullptr) {
    used = BlobProtection::kSealed;
  } else if (ctx.encryption_key != nullptr && !ctx.encryption_key->empty()) {
    used = BlobProtection::kKey;
  }
  AppendBe32(header, static_cast<uint32_t>(used));
  AppendBe32(header, 0);  // reserved
  AppendBe64(header, entries.size());
  AppendBe64(header, framed.size());
  BlobProtection applied = BlobProtection::kPlain;
  Bytes blob = ProtectBlob(ctx, compressed, header, &applied);
  Bytes out = header;
  Append(out, blob);
  return DurableWriteFile(path, out, /*append=*/false, sync);
}

Result<std::vector<LogEntry>> ReadArchiveFile(const std::string& path, const SealContext& ctx) {
  auto data = ReadFileBytes(path);
  if (!data.ok()) {
    return data.status();
  }
  if (data->size() < kArchiveHeaderSize) {
    return DataLoss("archive file truncated");
  }
  if (std::memcmp(data->data(), kArchiveMagic, sizeof(kArchiveMagic)) != 0) {
    return DataLoss("bad archive magic");
  }
  size_t off = 8;
  const uint32_t version = LoadBe32(data->data() + off);
  off += 4;
  if (version != 1) {
    return DataLoss("unsupported archive version");
  }
  off += 4;  // index (informational; the filename is authoritative)
  const uint32_t protection = LoadBe32(data->data() + off);
  off += 8;  // protection + reserved
  const uint64_t entry_count = LoadBe64(data->data() + off);
  off += 8;
  const uint64_t raw_size = LoadBe64(data->data() + off);
  off += 8;
  if (protection > static_cast<uint32_t>(BlobProtection::kSealed)) {
    return DataLoss("unknown archive protection");
  }
  BytesView aad = BytesView(*data).subspan(0, kArchiveHeaderSize);
  auto compressed = OpenBlob(ctx, static_cast<BlobProtection>(protection),
                             BytesView(*data).subspan(off), aad);
  if (!compressed.ok()) {
    return compressed.status();
  }
  auto framed = LzDecompress(*compressed, kMaxBlobRawSize);
  if (!framed.ok()) {
    return framed.status();
  }
  if (framed->size() != raw_size) {
    return DataLoss("archive payload size mismatch");
  }
  return ParseFramedEntries(*framed, entry_count);
}

// --- sealed snapshots -----------------------------------------------------

Status WriteSnapshotFile(const std::string& path, const SnapshotState& snapshot,
                         const SealContext& ctx, bool sync) {
  Bytes payload;
  AppendBe32(payload, 1);  // payload version
  AppendBe64(payload, snapshot.rewrite_epoch);
  Bytes head = snapshot.chain_head;
  head.resize(32, 0);
  Append(payload, head);
  AppendBe64(payload, snapshot.persisted_bytes);
  AppendBe32(payload, snapshot.resume_segment);
  AppendBe64(payload, snapshot.resume_offset);
  AppendBe64(payload, snapshot.counter_value);
  AppendBe64(payload, static_cast<uint64_t>(snapshot.max_ticket));
  AppendBe32(payload, static_cast<uint32_t>(snapshot.entries.size()));
  for (const LogEntry& entry : snapshot.entries) {
    AppendFramedPlain(payload, entry);
  }
  const Bytes compressed = LzCompress(payload);
  Bytes header;
  header.insert(header.end(), kSnapshotMagic, kSnapshotMagic + sizeof(kSnapshotMagic));
  AppendBe32(header, 1);  // file version
  BlobProtection used = BlobProtection::kPlain;
  if (ctx.enclave != nullptr) {
    used = BlobProtection::kSealed;
  } else if (ctx.encryption_key != nullptr && !ctx.encryption_key->empty()) {
    used = BlobProtection::kKey;
  }
  AppendBe32(header, static_cast<uint32_t>(used));
  BlobProtection applied = BlobProtection::kPlain;
  Bytes blob = ProtectBlob(ctx, compressed, header, &applied);
  Bytes out = header;
  Append(out, blob);
  return AtomicWriteFile(path, out, sync);
}

Result<SnapshotState> ReadSnapshotFile(const std::string& path, const SealContext& ctx) {
  auto data = ReadFileBytes(path);
  if (!data.ok()) {
    return data.status();
  }
  if (data->size() < kSnapshotHeaderSize) {
    return DataLoss("snapshot file truncated");
  }
  if (std::memcmp(data->data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return DataLoss("bad snapshot magic");
  }
  const uint32_t version = LoadBe32(data->data() + 8);
  if (version != 1) {
    return DataLoss("unsupported snapshot version");
  }
  const uint32_t protection = LoadBe32(data->data() + 12);
  if (protection > static_cast<uint32_t>(BlobProtection::kSealed)) {
    return DataLoss("unknown snapshot protection");
  }
  BytesView aad = BytesView(*data).subspan(0, kSnapshotHeaderSize);
  auto compressed = OpenBlob(ctx, static_cast<BlobProtection>(protection),
                             BytesView(*data).subspan(kSnapshotHeaderSize), aad);
  if (!compressed.ok()) {
    return compressed.status();
  }
  auto payload = LzDecompress(*compressed, kMaxBlobRawSize);
  if (!payload.ok()) {
    return payload.status();
  }
  const Bytes& p = *payload;
  if (p.size() < 4 + 8 + 32 + 8 + 4 + 8 + 8 + 8 + 4) {
    return DataLoss("snapshot payload truncated");
  }
  size_t off = 0;
  if (LoadBe32(p.data()) != 1) {
    return DataLoss("unsupported snapshot payload version");
  }
  off += 4;
  SnapshotState snapshot;
  snapshot.rewrite_epoch = LoadBe64(p.data() + off);
  off += 8;
  snapshot.chain_head.assign(p.begin() + static_cast<ptrdiff_t>(off),
                             p.begin() + static_cast<ptrdiff_t>(off + 32));
  off += 32;
  snapshot.persisted_bytes = LoadBe64(p.data() + off);
  off += 8;
  snapshot.resume_segment = LoadBe32(p.data() + off);
  off += 4;
  snapshot.resume_offset = LoadBe64(p.data() + off);
  off += 8;
  snapshot.counter_value = LoadBe64(p.data() + off);
  off += 8;
  snapshot.max_ticket = static_cast<int64_t>(LoadBe64(p.data() + off));
  off += 8;
  const uint32_t nentries = LoadBe32(p.data() + off);
  off += 4;
  auto entries = ParseFramedEntries(BytesView(p).subspan(off), nentries);
  if (!entries.ok()) {
    return entries.status();
  }
  snapshot.entries = std::move(*entries);
  return snapshot;
}

}  // namespace seal::core
