#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "src/core/audit_log.h"

namespace seal::core {
namespace {

crypto::EcdsaPrivateKey TestKey() {
  return crypto::EcdsaPrivateKey::FromSeed(ToBytes("audit-log-test-key"));
}

AuditLogOptions MemOptions() {
  AuditLogOptions options;
  options.mode = PersistenceMode::kMemory;
  options.counter_options.inject_latency = false;
  return options;
}

AuditLogOptions DiskOptions(const std::string& path) {
  AuditLogOptions options;
  options.mode = PersistenceMode::kDisk;
  options.path = path;
  options.counter_options.inject_latency = false;
  return options;
}

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

db::Row GitUpdateRow(int64_t time, const std::string& branch, const std::string& cid) {
  return {db::Value(time), db::Value(std::string("r")), db::Value(branch), db::Value(cid),
          db::Value(std::string("update"))};
}

class AuditLogTest : public ::testing::Test {
 protected:
  static std::vector<std::string> GitSchema() {
    return {"CREATE TABLE updates(time, repo, branch, cid, type)",
            "CREATE TABLE advertisements(time, repo, branch, cid)"};
  }
};

TEST_F(AuditLogTest, AppendInsertsAndChains) {
  AuditLog log(MemOptions(), TestKey());
  ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
  Bytes head0 = log.chain_head();
  ASSERT_TRUE(log.Append("updates", GitUpdateRow(1, "main", "c1")).ok());
  EXPECT_NE(log.chain_head(), head0);
  EXPECT_EQ(log.entry_count(), 1u);
  auto rows = log.Query("SELECT * FROM updates");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 1u);
}

TEST_F(AuditLogTest, AppendRequiresTimeColumn) {
  AuditLog log(MemOptions(), TestKey());
  ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
  EXPECT_FALSE(log.Append("updates", {db::Value(std::string("no-time"))}).ok());
  EXPECT_FALSE(log.Append("updates", {}).ok());
}

TEST_F(AuditLogTest, ChainIsDeterministic) {
  // The chain covers (time, wall clock, table, row); with identical
  // inputs -- including explicit wall timestamps -- two logs agree.
  AuditLog a(MemOptions(), TestKey());
  AuditLog b(MemOptions(), TestKey());
  ASSERT_TRUE(a.ExecuteSchema(GitSchema()).ok());
  ASSERT_TRUE(b.ExecuteSchema(GitSchema()).ok());
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(
        a.Append("updates", GitUpdateRow(i, "main", "c" + std::to_string(i)), 1000 + i).ok());
    ASSERT_TRUE(
        b.Append("updates", GitUpdateRow(i, "main", "c" + std::to_string(i)), 1000 + i).ok());
  }
  EXPECT_EQ(a.chain_head(), b.chain_head());
  // Divergence in content diverges the chain.
  ASSERT_TRUE(a.Append("updates", GitUpdateRow(6, "main", "cX"), 2000).ok());
  ASSERT_TRUE(b.Append("updates", GitUpdateRow(6, "main", "cY"), 2000).ok());
  EXPECT_NE(a.chain_head(), b.chain_head());
  // ... and so does divergence in the wall timestamp alone.
  AuditLog c(MemOptions(), TestKey());
  AuditLog d(MemOptions(), TestKey());
  ASSERT_TRUE(c.ExecuteSchema(GitSchema()).ok());
  ASSERT_TRUE(d.ExecuteSchema(GitSchema()).ok());
  ASSERT_TRUE(c.Append("updates", GitUpdateRow(1, "main", "c1"), 1).ok());
  ASSERT_TRUE(d.Append("updates", GitUpdateRow(1, "main", "c1"), 2).ok());
  EXPECT_NE(c.chain_head(), d.chain_head());
}

TEST_F(AuditLogTest, PersistAndVerify) {
  std::string path = TempPath("audit_persist.log");
  crypto::EcdsaPrivateKey key = TestKey();
  AuditLog log(DiskOptions(path), key);
  ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
  for (int i = 1; i <= 10; ++i) {
    ASSERT_TRUE(log.Append("updates", GitUpdateRow(i, "main", "c" + std::to_string(i))).ok());
  }
  ASSERT_TRUE(log.CommitHead().ok());
  auto verified = AuditLog::VerifyLogFile(path, key.public_key(), log.counter());
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
  EXPECT_EQ(*verified, 10u);
}

TEST_F(AuditLogTest, TamperedEntryDetected) {
  std::string path = TempPath("audit_tamper.log");
  crypto::EcdsaPrivateKey key = TestKey();
  AuditLog log(DiskOptions(path), key);
  ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(log.Append("updates", GitUpdateRow(i, "main", "c" + std::to_string(i))).ok());
  }
  ASSERT_TRUE(log.CommitHead().ok());
  // The provider edits the stored log: flip one byte in the middle of the
  // records.
  std::FILE* f = std::fopen(SegmentFilePath(path, 0).c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, kSegmentHeaderSize + 40, SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, kSegmentHeaderSize + 40, SEEK_SET);
  std::fputc(c ^ 0x01, f);
  std::fclose(f);
  EXPECT_FALSE(AuditLog::VerifyLogFile(path, key.public_key(), log.counter()).ok());
}

TEST_F(AuditLogTest, ForgedSignatureDetected) {
  std::string path = TempPath("audit_forge.log");
  crypto::EcdsaPrivateKey key = TestKey();
  {
    AuditLog log(DiskOptions(path), key);
    ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
    ASSERT_TRUE(log.Append("updates", GitUpdateRow(1, "main", "c1")).ok());
    ASSERT_TRUE(log.CommitHead().ok());
  }
  // The provider re-signs a modified log with its OWN key: clients verify
  // with the enclave's public key, so this must fail.
  crypto::EcdsaPrivateKey provider_key = crypto::EcdsaPrivateKey::FromSeed(ToBytes("provider"));
  AuditLog forged(DiskOptions(path), provider_key);
  ASSERT_TRUE(forged.ExecuteSchema(GitSchema()).ok());
  ASSERT_TRUE(forged.Append("updates", GitUpdateRow(1, "main", "cEVIL")).ok());
  ASSERT_TRUE(forged.CommitHead().ok());
  EXPECT_FALSE(AuditLog::VerifyLogFile(path, key.public_key(), forged.counter()).ok());
}

TEST_F(AuditLogTest, RollbackDetectedViaCounter) {
  std::string path = TempPath("audit_rollback.log");
  std::string backup = TempPath("audit_rollback.bak");
  std::string backup_sig = TempPath("audit_rollback.bak.sig");
  crypto::EcdsaPrivateKey key = TestKey();
  AuditLog log(DiskOptions(path), key);
  ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
  ASSERT_TRUE(log.Append("updates", GitUpdateRow(1, "main", "c1")).ok());
  ASSERT_TRUE(log.CommitHead().ok());
  // Snapshot the (validly signed!) old state.
  auto copy = [](const std::string& from, const std::string& to) {
    std::FILE* in = std::fopen(from.c_str(), "rb");
    std::FILE* out = std::fopen(to.c_str(), "wb");
    ASSERT_NE(in, nullptr);
    ASSERT_NE(out, nullptr);
    int c;
    while ((c = std::fgetc(in)) != EOF) {
      std::fputc(c, out);
    }
    std::fclose(in);
    std::fclose(out);
  };
  copy(SegmentFilePath(path, 0), backup);
  copy(path + ".sig", backup_sig);
  // More activity advances the counter.
  ASSERT_TRUE(log.Append("updates", GitUpdateRow(2, "main", "c2")).ok());
  ASSERT_TRUE(log.CommitHead().ok());
  // The old state still verifies entry-wise... but the counter gives the
  // rollback away.
  copy(backup, SegmentFilePath(path, 0));
  copy(backup_sig, path + ".sig");
  auto verified = AuditLog::VerifyLogFile(path, key.public_key(), log.counter());
  ASSERT_FALSE(verified.ok());
  EXPECT_NE(verified.status().message().find("rollback"), std::string::npos);
}

TEST_F(AuditLogTest, TrimRecomputesChainAndStillVerifies) {
  std::string path = TempPath("audit_trim.log");
  crypto::EcdsaPrivateKey key = TestKey();
  AuditLog log(DiskOptions(path), key);
  ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
  for (int i = 1; i <= 6; ++i) {
    ASSERT_TRUE(log.Append("updates", GitUpdateRow(i, "main", "c" + std::to_string(i))).ok());
  }
  ASSERT_TRUE(log.CommitHead().ok());
  uint64_t size_before = log.persisted_bytes();
  ASSERT_TRUE(log.Trim({"DELETE FROM updates WHERE time NOT IN "
                        "(SELECT MAX(time) FROM updates GROUP BY repo, branch)"})
                  .ok());
  EXPECT_EQ(log.entry_count(), 1u);
  EXPECT_LT(log.persisted_bytes(), size_before);
  auto verified = AuditLog::VerifyLogFile(path, key.public_key(), log.counter());
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
  EXPECT_EQ(*verified, 1u);
  // The surviving row is the latest one.
  auto rows = log.Query("SELECT cid FROM updates");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][0].AsText(), "c6");
}

TEST_F(AuditLogTest, EncryptedLogRoundTrip) {
  std::string path = TempPath("audit_encrypted.log");
  crypto::EcdsaPrivateKey key = TestKey();
  AuditLogOptions options = DiskOptions(path);
  options.encryption_key = FromHex("000102030405060708090a0b0c0d0e0f");
  AuditLog log(options, key);
  ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
  ASSERT_TRUE(log.Append("updates", GitUpdateRow(1, "main", "secret-cid")).ok());
  ASSERT_TRUE(log.CommitHead().ok());
  // Ciphertext on disk: the payload must not appear in the clear.
  std::FILE* f = std::fopen(SegmentFilePath(path, 0).c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  int c;
  while ((c = std::fgetc(f)) != EOF) {
    contents.push_back(static_cast<char>(c));
  }
  std::fclose(f);
  EXPECT_EQ(contents.find("secret-cid"), std::string::npos);
  // Verification succeeds with the key, fails without.
  EXPECT_TRUE(
      AuditLog::VerifyLogFile(path, key.public_key(), log.counter(), options.encryption_key)
          .ok());
  EXPECT_FALSE(AuditLog::VerifyLogFile(path, key.public_key(), log.counter()).ok());
}

TEST_F(AuditLogTest, EncryptedRecordsCarryUniqueNonces) {
  std::string path = TempPath("audit_nonces.log");
  AuditLogOptions options = DiskOptions(path);
  options.encryption_key = FromHex("000102030405060708090a0b0c0d0e0f");
  AuditLog log(options, TestKey());
  ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
  constexpr int kRecords = 64;
  for (int i = 1; i <= kRecords; ++i) {
    ASSERT_TRUE(log.Append("updates", GitUpdateRow(i, "main", "c" + std::to_string(i))).ok());
  }
  ASSERT_TRUE(log.CommitHead().ok());
  // Walk the on-disk frames: every record's leading 12 bytes (the GCM
  // nonce) must be distinct even though one cached context sealed them all.
  auto file = ReadFileBytes(SegmentFilePath(path, 0));
  ASSERT_TRUE(file.ok());
  const Bytes& data = *file;
  std::set<Bytes> nonces;
  size_t off = kSegmentHeaderSize;
  while (off < data.size()) {
    ASSERT_LE(off + 4, data.size());
    uint32_t len = LoadBe32(data.data() + off);
    off += 4;
    ASSERT_LE(off + len, data.size());
    ASSERT_GE(len, crypto::kGcmNonceSize + crypto::kGcmTagSize);
    nonces.insert(Bytes(data.begin() + static_cast<ptrdiff_t>(off),
                        data.begin() + static_cast<ptrdiff_t>(off + crypto::kGcmNonceSize)));
    off += len;
  }
  EXPECT_EQ(nonces.size(), static_cast<size_t>(kRecords));
}

TEST_F(AuditLogTest, EncryptedTrimRewriteStillVerifiesAndReads) {
  std::string path = TempPath("audit_encrypted_trim.log");
  crypto::EcdsaPrivateKey key = TestKey();
  AuditLogOptions options = DiskOptions(path);
  options.encryption_key = FromHex("feffe9928665731c6d6a8f9467308308");
  AuditLog log(options, key);
  ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
  for (int i = 1; i <= 6; ++i) {
    ASSERT_TRUE(log.Append("updates", GitUpdateRow(i, "main", "c" + std::to_string(i))).ok());
  }
  ASSERT_TRUE(log.CommitHead().ok());
  // Trim to the latest update per branch; the rewrite re-encrypts the
  // survivors with fresh nonces from the cached context.
  size_t deleted = 0;
  ASSERT_TRUE(log.Trim({"DELETE FROM updates WHERE time < 6"}, &deleted).ok());
  EXPECT_EQ(deleted, 5u);
  auto verified =
      AuditLog::VerifyLogFile(path, key.public_key(), log.counter(), options.encryption_key);
  ASSERT_TRUE(verified.ok());
  EXPECT_EQ(*verified, 1u);
  auto entries = AuditLog::ReadVerifiedEntries(path, options.encryption_key);
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ((*entries)[0].values[3].AsText(), "c6");
}

TEST_F(AuditLogTest, LogEntrySerializationRoundTrip) {
  LogEntry entry;
  entry.time = 42;
  entry.table = "updates";
  entry.values = {db::Value(static_cast<int64_t>(42)), db::Value(std::string("repo")),
                  db::Value(2.5), db::Value::Null()};
  Bytes wire = entry.Serialize();
  size_t off = 0;
  auto decoded = LogEntry::Deserialize(wire, off);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->time, 42);
  EXPECT_EQ(decoded->table, "updates");
  ASSERT_EQ(decoded->values.size(), 4u);
  EXPECT_EQ(decoded->values[1].AsText(), "repo");
  EXPECT_DOUBLE_EQ(decoded->values[2].AsReal(), 2.5);
  EXPECT_TRUE(decoded->values[3].is_null());
  EXPECT_EQ(off, wire.size());
}

// --- hostile-input deserialization ----------------------------------------

// time + wall clock + table, i.e. everything before the value count.
Bytes EntryPrefix(const std::string& table) {
  Bytes wire;
  AppendBe64(wire, 1);
  AppendBe64(wire, 2);
  AppendBe32(wire, static_cast<uint32_t>(table.size()));
  Append(wire, table);
  return wire;
}

// A full entry whose values carry the given raw (tagged) payloads verbatim.
Bytes EntryWithRawValues(const std::vector<std::string>& raw) {
  Bytes wire = EntryPrefix("updates");
  AppendBe32(wire, static_cast<uint32_t>(raw.size()));
  for (const std::string& s : raw) {
    AppendBe32(wire, static_cast<uint32_t>(s.size()));
    Append(wire, s);
  }
  return wire;
}

Status DeserializeStatus(BytesView wire) {
  size_t off = 0;
  return LogEntry::Deserialize(wire, off).status();
}

TEST_F(AuditLogTest, LogEntryHugeValueCountRejected) {
  // A count that cannot possibly fit in the frame must be rejected up
  // front, before any allocation proportional to it.
  Bytes wire = EntryPrefix("updates");
  AppendBe32(wire, 0xFFFFFFFFu);
  Status status = DeserializeStatus(wire);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("more values"), std::string::npos);

  // Same with a count just one past what the remaining bytes can hold.
  Bytes tight = EntryWithRawValues({"I1", "I2"});
  // Patch the count from 2 to 3: the two 6-byte value frames can hold at
  // most two values.
  const size_t count_off = EntryPrefix("updates").size();
  tight[count_off + 3] = 3;
  EXPECT_FALSE(DeserializeStatus(tight).ok());
}

TEST_F(AuditLogTest, LogEntryMalformedValuesRejected) {
  // Valid control case first so the helpers themselves are trusted.
  EXPECT_TRUE(DeserializeStatus(EntryWithRawValues({"N", "I42", "R2.5", "T2:hi"})).ok());

  const std::vector<std::string> hostile = {
      "Iabc",    // integer with no digits
      "I12x",    // integer with trailing junk
      "I",       // integer with empty payload
      "R",       // real with empty payload
      "Rxyz",    // real with no digits
      "R1.5x",   // real with trailing junk
      "T5:ab",   // text length larger than payload
      "T1:ab",   // text length smaller than payload
      "Tab",     // text without a colon
      "Nx",      // null with a payload
      "X",       // unknown tag
  };
  for (const std::string& value : hostile) {
    EXPECT_FALSE(DeserializeStatus(EntryWithRawValues({value})).ok())
        << "accepted hostile value: " << value;
  }
}

TEST_F(AuditLogTest, LogEntryZeroLengthValueRejected) {
  Bytes wire = EntryPrefix("updates");
  AppendBe32(wire, 1);
  AppendBe32(wire, 0);  // zero-length value frame
  wire.push_back('N');  // spare byte so the count passes the density guard
  Status status = DeserializeStatus(wire);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("zero-length"), std::string::npos);
}

TEST_F(AuditLogTest, LogEntryTruncationAtEveryBoundaryRejected) {
  const Bytes wire = EntryWithRawValues({"I7", "T4:text", "N", "R0.25"});
  size_t off = 0;
  ASSERT_TRUE(LogEntry::Deserialize(wire, off).ok());
  ASSERT_EQ(off, wire.size());
  // Every strict prefix is missing data somewhere -- header, table, value
  // length, or value payload -- and must fail cleanly, never crash or
  // return a partially-parsed entry.
  for (size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(DeserializeStatus(BytesView(wire).subspan(0, len)).ok())
        << "prefix of " << len << " bytes parsed";
  }
}

TEST_F(AuditLogTest, LogEntryHugeTableLengthRejected) {
  Bytes wire;
  AppendBe64(wire, 1);
  AppendBe64(wire, 2);
  AppendBe32(wire, 0xFFFFFFF0u);  // table length far past the frame
  AppendBe32(wire, 0);
  EXPECT_FALSE(DeserializeStatus(wire).ok());
}

TEST_F(AuditLogTest, ReadVerifiedEntriesRejectsHostileRecords) {
  const std::string path = TempPath("hostile_records.log");
  RemoveLogFiles(path);
  // Each hostile frame sits behind a valid header of segment 0.
  const std::string seg0 = SegmentFilePath(path, 0);
  SegmentHeader header;
  header.prev_head.assign(crypto::kSha256DigestSize, 0);
  // Record with trailing bytes after a valid entry.
  {
    Bytes file = header.Encode();
    Bytes wire = EntryWithRawValues({"I1"});
    wire.push_back(0x00);  // one stray byte inside the frame
    AppendBe32(file, static_cast<uint32_t>(wire.size()));
    Append(file, wire);
    ASSERT_TRUE(DurableWriteFile(seg0, file, /*append=*/false, /*sync=*/false).ok());
    auto entries = AuditLog::ReadVerifiedEntries(path);
    ASSERT_FALSE(entries.ok());
    EXPECT_NE(entries.status().message().find("trailing bytes"), std::string::npos);
  }
  // Frame length running past the end of the file.
  {
    Bytes file = header.Encode();
    AppendBe32(file, 1000);
    file.push_back(0xAB);
    ASSERT_TRUE(DurableWriteFile(seg0, file, /*append=*/false, /*sync=*/false).ok());
    auto entries = AuditLog::ReadVerifiedEntries(path);
    ASSERT_FALSE(entries.ok());
    EXPECT_NE(entries.status().message().find("truncated record body"), std::string::npos);
  }
  // Frame cut off inside the 4-byte length prefix.
  {
    Bytes file = header.Encode();
    file.push_back(0x00);
    file.push_back(0x00);
    ASSERT_TRUE(DurableWriteFile(seg0, file, /*append=*/false, /*sync=*/false).ok());
    auto entries = AuditLog::ReadVerifiedEntries(path);
    ASSERT_FALSE(entries.ok());
    EXPECT_NE(entries.status().message().find("truncated record frame"), std::string::npos);
  }
  RemoveLogFiles(path);
}

TEST_F(AuditLogTest, SegmentHeaderEditsDetected) {
  // Every authenticated header field is checked by the verifier: against
  // the other segments, or against the segment's own records.
  const std::string path = TempPath("segment_header_edits.log");
  crypto::EcdsaPrivateKey key = TestKey();
  AuditLog log(DiskOptions(path), key);
  ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(log.Append("updates", GitUpdateRow(i, "main", "c" + std::to_string(i))).ok());
  }
  ASSERT_TRUE(log.CommitHead().ok());
  const std::string seg0 = SegmentFilePath(path, 0);
  auto original = ReadFileBytes(seg0);
  ASSERT_TRUE(original.ok());
  auto header = SegmentHeader::Decode(*original);
  ASSERT_TRUE(header.ok());
  ASSERT_EQ(header->closed, 0u);  // the lone segment is still open

  auto rejected = [&](const char* what, const Bytes& edited) {
    ASSERT_TRUE(DurableWriteFile(seg0, edited, /*append=*/false, /*sync=*/false).ok());
    EXPECT_FALSE(AuditLog::VerifyLogFile(path, key.public_key(), log.counter()).ok()) << what;
    ASSERT_TRUE(DurableWriteFile(seg0, *original, /*append=*/false, /*sync=*/false).ok());
  };
  auto with_header = [&](const SegmentHeader& edited) {
    Bytes file = edited.Encode();
    file.insert(file.end(), original->begin() + kSegmentHeaderSize, original->end());
    return file;
  };
  Bytes reserved = *original;
  reserved[23] = 0x01;  // bytes 20..23: the reserved word after `closed`
  rejected("reserved word set", reserved);
  SegmentHeader closed = *header;
  closed.closed = 1;
  rejected("last segment marked closed", with_header(closed));
  closed.closed = 2;
  rejected("closed flag out of range", with_header(closed));
  SegmentHeader first = *header;
  first.first_ticket += 1;
  rejected("first ticket of an open segment edited", with_header(first));
  SegmentHeader last = *header;
  last.last_ticket = 3;
  rejected("open segment claims a last ticket", with_header(last));
  EXPECT_TRUE(AuditLog::VerifyLogFile(path, key.public_key(), log.counter()).ok());
}

// --- trimming statements ----------------------------------------------------

TEST_F(AuditLogTest, NonDeleteTrimIsRejectedBeforeAnyStatementRuns) {
  const std::string path = TempPath("trim_non_delete.log");
  crypto::EcdsaPrivateKey key = TestKey();
  AuditLog log(DiskOptions(path), key);
  ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(
        log.Append("updates", GitUpdateRow(i, "main", "c" + std::to_string(i)), 100 + i).ok());
  }
  ASSERT_TRUE(log.CommitHead().ok());
  const Bytes head = log.chain_head();
  std::vector<Bytes> before;
  for (const LogEntry& entry : log.entries()) {
    before.push_back(entry.Serialize());
  }
  // The DELETE comes first, yet nothing runs: every statement is checked
  // before any of them executes.
  for (const std::string& bad : {std::string("UPDATE updates SET cid = 'x' WHERE time = 2"),
                                 std::string("INSERT INTO updates VALUES (9, 'r', 'main', "
                                             "'c9', 'update')")}) {
    size_t deleted = 7;
    Status s = log.Trim({"DELETE FROM updates WHERE time = 1", bad}, &deleted);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_EQ(deleted, 0u);
  }
  EXPECT_EQ(log.chain_head(), head);
  ASSERT_EQ(log.entries().size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(log.entries()[i].Serialize(), before[i]);
  }
  auto rows = log.Query("SELECT time, cid FROM updates ORDER BY time");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(rows->rows[i][1].AsText(), "c" + std::to_string(i + 1));
  }
  auto verified = AuditLog::VerifyLogFile(path, key.public_key(), log.counter());
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
  EXPECT_EQ(*verified, 3u);
}

TEST_F(AuditLogTest, TrimRefusesRowsWithoutLogEntries) {
  // Every database row is some log entry; a row that bypassed Append has
  // no entry to keep, so the rebuild reports it instead of dropping it.
  AuditLog log(MemOptions(), TestKey());
  ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
  ASSERT_TRUE(log.Append("updates", GitUpdateRow(1, "main", "c1")).ok());
  ASSERT_TRUE(log.Append("updates", GitUpdateRow(2, "main", "c2")).ok());
  ASSERT_TRUE(log.database().InsertRow("updates", GitUpdateRow(3, "main", "stray")).ok());
  Status s = log.Trim({"DELETE FROM updates WHERE time = 1"});
  EXPECT_EQ(s.code(), StatusCode::kInternal) << s.ToString();
}

TEST_F(AuditLogTest, TrimInOneTableKeepsCrossTableOrderAndWallClocks) {
  const std::string path = TempPath("trim_two_tables.log");
  crypto::EcdsaPrivateKey key = TestKey();
  AuditLog log(DiskOptions(path), key);
  ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
  auto advert = [](int64_t time, const std::string& cid) {
    return db::Row{db::Value(time), db::Value(std::string("r")), db::Value(std::string("main")),
                   db::Value(cid)};
  };
  // updates and advertisements interleaved, each entry with its own wall
  // clock.
  for (int i = 1; i <= 3; ++i) {
    const std::string cid = "c" + std::to_string(i);
    ASSERT_TRUE(log.Append("updates", GitUpdateRow(i, "main", cid), 100 * i + 1).ok());
    ASSERT_TRUE(log.Append("advertisements", advert(i, cid), 100 * i + 2).ok());
  }
  ASSERT_TRUE(log.CommitHead().ok());
  size_t deleted = 0;
  ASSERT_TRUE(log.Trim({"DELETE FROM updates WHERE time < 3"}, &deleted).ok());
  EXPECT_EQ(deleted, 2u);

  struct Kept {
    std::string table;
    int64_t wall_nanos;
    std::string cid;
  };
  const std::vector<Kept> expected = {{"advertisements", 102, "c1"},
                                      {"advertisements", 202, "c2"},
                                      {"updates", 301, "c3"},
                                      {"advertisements", 302, "c3"}};
  auto entries = AuditLog::ReadVerifiedEntries(path);
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  ASSERT_EQ(entries->size(), expected.size());
  ASSERT_EQ(log.entries().size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ((*entries)[i].table, expected[i].table) << "entry " << i;
    EXPECT_EQ((*entries)[i].wall_nanos, expected[i].wall_nanos) << "entry " << i;
    ASSERT_EQ((*entries)[i].values.size(), expected[i].table == "updates" ? 5u : 4u);
    EXPECT_EQ((*entries)[i].values[3].AsText(), expected[i].cid) << "entry " << i;
    EXPECT_EQ(log.entries()[i].Serialize(), (*entries)[i].Serialize()) << "entry " << i;
  }
  // The rebuilt chain is the chain a log holding only the survivors has.
  AuditLog fresh(MemOptions(), TestKey());
  ASSERT_TRUE(fresh.ExecuteSchema(GitSchema()).ok());
  for (const LogEntry& entry : *entries) {
    ASSERT_TRUE(fresh.Append(entry.table, entry.values, entry.wall_nanos).ok());
  }
  EXPECT_EQ(log.chain_head(), fresh.chain_head());
  auto verified = AuditLog::VerifyLogFile(path, key.public_key(), log.counter());
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
  EXPECT_EQ(*verified, expected.size());
}

// --- trim wall-clock preservation -----------------------------------------

TEST_F(AuditLogTest, TrimPreservesDistinctWallClocksForEqualTimeRows) {
  // Regression: the trim rebuild used to recover wall clocks through a
  // (table, time) map, so two rows sharing a ticket collapsed onto one
  // wall timestamp and the rebuilt chain no longer matched reality.
  const std::string path = TempPath("trim_wall.log");
  AuditLog log(DiskOptions(path), TestKey());
  ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
  ASSERT_TRUE(log.Append("updates", GitUpdateRow(1, "main", "a"), 100).ok());
  ASSERT_TRUE(log.Append("updates", GitUpdateRow(1, "dev", "b"), 200).ok());
  ASSERT_TRUE(log.Append("updates", GitUpdateRow(2, "main", "c"), 300).ok());
  ASSERT_TRUE(log.CommitHead().ok());
  size_t deleted = 0;
  ASSERT_TRUE(log.Trim({"DELETE FROM updates WHERE time = 2"}, &deleted).ok());
  EXPECT_EQ(deleted, 1u);
  auto entries = AuditLog::ReadVerifiedEntries(path);
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 2u);
  EXPECT_EQ((*entries)[0].wall_nanos, 100);
  EXPECT_EQ((*entries)[1].wall_nanos, 200);
  auto verified = AuditLog::VerifyLogFile(path, TestKey().public_key(), log.counter());
  EXPECT_TRUE(verified.ok());
}

TEST_F(AuditLogTest, TrimPreservesWallClocksForIdenticalRows) {
  // Even byte-identical surviving rows keep their own wall clocks, matched
  // first-in-first-out so the rebuilt order equals the append order.
  const std::string path = TempPath("trim_wall_dup.log");
  AuditLog log(DiskOptions(path), TestKey());
  ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
  ASSERT_TRUE(log.Append("updates", GitUpdateRow(1, "main", "a"), 100).ok());
  ASSERT_TRUE(log.Append("updates", GitUpdateRow(1, "main", "a"), 200).ok());
  ASSERT_TRUE(log.Append("updates", GitUpdateRow(9, "main", "z"), 300).ok());
  ASSERT_TRUE(log.CommitHead().ok());
  ASSERT_TRUE(log.Trim({"DELETE FROM updates WHERE time = 9"}).ok());
  auto entries = AuditLog::ReadVerifiedEntries(path);
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 2u);
  EXPECT_EQ((*entries)[0].wall_nanos, 100);
  EXPECT_EQ((*entries)[1].wall_nanos, 200);
  for (const LogEntry& entry : *entries) {
    EXPECT_EQ(entry.table, "updates");
    ASSERT_EQ(entry.values.size(), 5u);
    EXPECT_EQ(entry.values[3].AsText(), "a");
  }
}

}  // namespace
}  // namespace seal::core
