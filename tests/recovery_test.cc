// Crash-recovery and durable-lifecycle tests: segmented logs, sealed
// snapshots, torn-tail/torn-head repair, trim archives and full-history
// reconstruction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "src/core/audit_log.h"
#include "src/core/shard.h"
#include "src/sgx/enclave.h"

namespace seal::core {
namespace {

crypto::EcdsaPrivateKey TestKey() {
  return crypto::EcdsaPrivateKey::FromSeed(ToBytes("recovery-test-key"));
}

sgx::EnclaveConfig FastEnclave() {
  sgx::EnclaveConfig config;
  config.inject_costs = false;
  return config;
}

// gtest's TempDir persists across runs, so every test scrubs its path
// before building state on it.
std::string FreshPath(const std::string& name) {
  std::string path = std::string(::testing::TempDir()) + "/" + name;
  RemoveLogFiles(path);
  return path;
}

AuditLogOptions SegmentedOptions(const std::string& path, uint64_t segment_bytes = 512) {
  AuditLogOptions options;
  options.mode = PersistenceMode::kDisk;
  options.path = path;
  options.counter_options.inject_latency = false;
  options.segment_bytes = segment_bytes;
  options.recover = true;
  return options;
}

std::vector<std::string> GitSchema() {
  return {"CREATE TABLE updates(time, repo, branch, cid, type)",
          "CREATE TABLE advertisements(time, repo, branch, cid)"};
}

db::Row GitUpdateRow(int64_t time, const std::string& branch, const std::string& cid) {
  return {db::Value(time), db::Value(std::string("r")), db::Value(branch), db::Value(cid),
          db::Value(std::string("update"))};
}

// Appends `n` update rows with times [first, first+n) and commits.
void FillLog(AuditLog& log, int64_t first, int n) {
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(
        log.Append("updates", GitUpdateRow(first + i, "main", "c" + std::to_string(first + i)),
                   /*wall_nanos=*/1000 + first + i)
            .ok());
  }
  ASSERT_TRUE(log.CommitHead().ok());
}

std::vector<Bytes> SerializedEntries(const std::vector<LogEntry>& entries) {
  std::vector<Bytes> out;
  for (const LogEntry& entry : entries) {
    out.push_back(entry.Serialize());
  }
  return out;
}

TEST(SegmentedLog, AppendsRollSegmentsAndVerify) {
  const std::string path = FreshPath("seg_roll.log");
  AuditLog log(SegmentedOptions(path), TestKey());
  ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
  ASSERT_TRUE(log.Recover().ok());
  FillLog(log, 1, 40);
  EXPECT_GT(log.segment_count(), 2u);
  // All but the last segment are closed and immutable.
  const auto segments = ListSegmentFiles(path);
  ASSERT_EQ(segments.size(), log.segment_count());
  for (size_t i = 0; i < segments.size(); ++i) {
    auto data = ReadFileBytes(SegmentFilePath(path, segments[i]));
    ASSERT_TRUE(data.ok());
    auto header = SegmentHeader::Decode(*data);
    ASSERT_TRUE(header.ok());
    EXPECT_EQ(header->index, i);
    if (i + 1 < segments.size()) {
      EXPECT_EQ(header->closed, 1u);
    }
  }
  auto verified = AuditLog::VerifyLogFile(path, TestKey().public_key(), log.counter());
  ASSERT_TRUE(verified.ok()) << verified.status().message();
  EXPECT_EQ(*verified, 40u);
  auto entries = AuditLog::ReadVerifiedEntries(path);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 40u);
}

TEST(SegmentedLog, EncryptedSegmentsVerifyWithKey) {
  const std::string path = FreshPath("seg_enc.log");
  AuditLogOptions options = SegmentedOptions(path);
  options.encryption_key = ToBytes("0123456789abcdef");
  AuditLog log(options, TestKey());
  ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
  ASSERT_TRUE(log.Recover().ok());
  FillLog(log, 1, 25);
  auto verified =
      AuditLog::VerifyLogFile(path, TestKey().public_key(), log.counter(), options.encryption_key);
  ASSERT_TRUE(verified.ok()) << verified.status().message();
  EXPECT_EQ(*verified, 25u);
  // Without the key the records do not parse.
  EXPECT_FALSE(AuditLog::VerifyLogFile(path, TestKey().public_key(), log.counter()).ok());
}

TEST(Recovery, CleanRestartRestoresLogAndChain) {
  const std::string path = FreshPath("recover_clean.log");
  Bytes head_before;
  std::vector<Bytes> entries_before;
  {
    AuditLog log(SegmentedOptions(path), TestKey());
    ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
    ASSERT_TRUE(log.Recover().ok());
    FillLog(log, 1, 30);
    head_before = log.chain_head();
    auto entries = AuditLog::ReadVerifiedEntries(path);
    ASSERT_TRUE(entries.ok());
    entries_before = SerializedEntries(*entries);
  }
  AuditLog log(SegmentedOptions(path), TestKey());
  ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
  AuditLog::RecoveryInfo info;
  ASSERT_TRUE(log.Recover(&info).ok());
  EXPECT_TRUE(info.had_state);
  EXPECT_FALSE(info.head_missing);
  EXPECT_EQ(info.max_ticket, 30);
  EXPECT_EQ(log.entry_count(), 30u);
  EXPECT_EQ(log.chain_head(), head_before);
  // The database is rebuilt too.
  auto rows = log.Query("SELECT * FROM updates");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 30u);
  // Recovery re-commits against the fresh counter cluster; the log then
  // verifies end to end and accepts further appends.
  auto verified = AuditLog::VerifyLogFile(path, TestKey().public_key(), log.counter());
  ASSERT_TRUE(verified.ok()) << verified.status().message();
  EXPECT_EQ(*verified, 30u);
  FillLog(log, 31, 10);
  verified = AuditLog::VerifyLogFile(path, TestKey().public_key(), log.counter());
  ASSERT_TRUE(verified.ok()) << verified.status().message();
  EXPECT_EQ(*verified, 40u);
  auto entries = AuditLog::ReadVerifiedEntries(path);
  ASSERT_TRUE(entries.ok());
  const std::vector<Bytes> after = SerializedEntries(*entries);
  ASSERT_GE(after.size(), entries_before.size());
  for (size_t i = 0; i < entries_before.size(); ++i) {
    EXPECT_EQ(after[i], entries_before[i]) << "entry " << i << " changed across restart";
  }
}

TEST(Recovery, FreshPathRecoversEmpty) {
  const std::string path = FreshPath("recover_empty.log");
  AuditLog log(SegmentedOptions(path), TestKey());
  ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
  AuditLog::RecoveryInfo info;
  ASSERT_TRUE(log.Recover(&info).ok());
  EXPECT_FALSE(info.had_state);
  EXPECT_EQ(log.entry_count(), 0u);
  FillLog(log, 1, 3);
  EXPECT_EQ(log.entry_count(), 3u);
}

TEST(Recovery, AppendBeforeRecoverIsRejected) {
  const std::string path = FreshPath("recover_guard.log");
  AuditLog log(SegmentedOptions(path), TestKey());
  ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
  Status s = log.Append("updates", GitUpdateRow(1, "main", "c1"));
  EXPECT_FALSE(s.ok());
  ASSERT_TRUE(log.Recover().ok());
  EXPECT_TRUE(log.Append("updates", GitUpdateRow(1, "main", "c1")).ok());
}

TEST(Recovery, TornTailRecordIsDiscarded) {
  const std::string path = FreshPath("recover_torn_tail.log");
  {
    AuditLog log(SegmentedOptions(path), TestKey());
    ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
    ASSERT_TRUE(log.Recover().ok());
    FillLog(log, 1, 20);
  }
  // Simulate a crash mid-append: a frame whose length prefix promises more
  // bytes than the file holds.
  const auto segments = ListSegmentFiles(path);
  ASSERT_FALSE(segments.empty());
  Bytes torn;
  AppendBe32(torn, 1000);
  torn.push_back(0xde);
  torn.push_back(0xad);
  ASSERT_TRUE(DurableWriteFile(SegmentFilePath(path, segments.back()), torn, /*append=*/true,
                               /*sync=*/false)
                  .ok());

  AuditLog log(SegmentedOptions(path), TestKey());
  ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
  AuditLog::RecoveryInfo info;
  ASSERT_TRUE(log.Recover(&info).ok());
  EXPECT_EQ(info.discarded_records, 1u);
  EXPECT_EQ(log.entry_count(), 20u);
  // The torn bytes were truncated away: the log verifies and extends.
  auto verified = AuditLog::VerifyLogFile(path, TestKey().public_key(), log.counter());
  ASSERT_TRUE(verified.ok()) << verified.status().message();
  EXPECT_EQ(*verified, 20u);
  FillLog(log, 21, 5);
  verified = AuditLog::VerifyLogFile(path, TestKey().public_key(), log.counter());
  ASSERT_TRUE(verified.ok()) << verified.status().message();
  EXPECT_EQ(*verified, 25u);
}

TEST(Recovery, FlushedButUncommittedTailIsKept) {
  const std::string path = FreshPath("recover_uncommitted.log");
  {
    AuditLog log(SegmentedOptions(path), TestKey());
    ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
    ASSERT_TRUE(log.Recover().ok());
    FillLog(log, 1, 10);  // committed
    // Two more appends flushed (by the destructor) but never committed:
    // the head on disk covers 10 entries, the segments hold 12.
    ASSERT_TRUE(log.Append("updates", GitUpdateRow(11, "main", "c11"), 2000).ok());
    ASSERT_TRUE(log.Append("updates", GitUpdateRow(12, "main", "c12"), 2001).ok());
  }
  AuditLog log(SegmentedOptions(path), TestKey());
  ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
  AuditLog::RecoveryInfo info;
  ASSERT_TRUE(log.Recover(&info).ok());
  // The tail was written by this enclave (it authenticated and chained),
  // so recovery keeps it and the re-committed head covers it.
  EXPECT_EQ(log.entry_count(), 12u);
  EXPECT_EQ(info.max_ticket, 12);
  auto verified = AuditLog::VerifyLogFile(path, TestKey().public_key(), log.counter());
  ASSERT_TRUE(verified.ok()) << verified.status().message();
  EXPECT_EQ(*verified, 12u);
}

TEST(Recovery, TornHeadFileIsReplaced) {
  const std::string path = FreshPath("recover_torn_head.log");
  {
    AuditLog log(SegmentedOptions(path), TestKey());
    ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
    ASSERT_TRUE(log.Recover().ok());
    FillLog(log, 1, 15);
  }
  // Tear the head: keep only the first 40 bytes.
  auto head = ReadFileBytes(HeadFilePath(path));
  ASSERT_TRUE(head.ok());
  head->resize(40);
  ASSERT_TRUE(DurableWriteFile(HeadFilePath(path), *head, /*append=*/false, /*sync=*/false).ok());

  AuditLog log(SegmentedOptions(path), TestKey());
  ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
  AuditLog::RecoveryInfo info;
  ASSERT_TRUE(log.Recover(&info).ok());
  EXPECT_TRUE(info.head_missing);
  EXPECT_EQ(log.entry_count(), 15u);
  // Recovery re-signed a fresh head over the self-verified chain.
  auto verified = AuditLog::VerifyLogFile(path, TestKey().public_key(), log.counter());
  ASSERT_TRUE(verified.ok()) << verified.status().message();
  EXPECT_EQ(*verified, 15u);
}

TEST(Recovery, MissingHeadFileIsRecommitted) {
  const std::string path = FreshPath("recover_missing_head.log");
  {
    AuditLog log(SegmentedOptions(path), TestKey());
    ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
    ASSERT_TRUE(log.Recover().ok());
    FillLog(log, 1, 8);
  }
  RemoveFileIfExists(HeadFilePath(path));
  AuditLog log(SegmentedOptions(path), TestKey());
  ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
  AuditLog::RecoveryInfo info;
  ASSERT_TRUE(log.Recover(&info).ok());
  EXPECT_TRUE(info.head_missing);
  EXPECT_EQ(log.entry_count(), 8u);
  EXPECT_TRUE(FileExists(HeadFilePath(path)));
  auto verified = AuditLog::VerifyLogFile(path, TestKey().public_key(), log.counter());
  ASSERT_TRUE(verified.ok()) << verified.status().message();
}

TEST(Recovery, MissingMiddleSegmentIsDetected) {
  const std::string path = FreshPath("recover_gap.log");
  {
    AuditLog log(SegmentedOptions(path), TestKey());
    ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
    ASSERT_TRUE(log.Recover().ok());
    FillLog(log, 1, 40);
    ASSERT_GT(log.segment_count(), 2u);
  }
  RemoveFileIfExists(SegmentFilePath(path, 1));
  AuditLog log(SegmentedOptions(path), TestKey());
  ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
  EXPECT_FALSE(log.Recover().ok());
}

TEST(Recovery, TamperedMiddleRecordFailsRecovery) {
  const std::string path = FreshPath("recover_tamper.log");
  {
    AuditLog log(SegmentedOptions(path), TestKey());
    ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
    ASSERT_TRUE(log.Recover().ok());
    FillLog(log, 1, 40);
    ASSERT_GT(log.segment_count(), 1u);
  }
  // Flip a record byte in the FIRST segment: not at the physical end of
  // the log, so this is corruption, not a torn write.
  auto data = ReadFileBytes(SegmentFilePath(path, 0));
  ASSERT_TRUE(data.ok());
  ASSERT_GT(data->size(), kSegmentHeaderSize + 10);
  (*data)[kSegmentHeaderSize + 9] ^= 0x01;
  ASSERT_TRUE(
      DurableWriteFile(SegmentFilePath(path, 0), *data, /*append=*/false, /*sync=*/false).ok());

  AuditLog log(SegmentedOptions(path), TestKey());
  ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
  EXPECT_FALSE(log.Recover().ok());
}

TEST(Recovery, SnapshotBoundsReplayToTail) {
  const std::string path = FreshPath("recover_snapshot.log");
  AuditLogOptions options = SegmentedOptions(path, /*segment_bytes=*/1024);
  options.snapshot_interval_bytes = 2048;
  size_t total = 0;
  {
    AuditLog log(options, TestKey());
    ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
    ASSERT_TRUE(log.Recover().ok());
    for (int batch = 0; batch < 20; ++batch) {
      FillLog(log, 1 + batch * 5, 5);
    }
    total = log.entry_count();
    ASSERT_TRUE(FileExists(SnapshotFilePath(path)));
  }
  AuditLog log(options, TestKey());
  ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
  AuditLog::RecoveryInfo info;
  ASSERT_TRUE(log.Recover(&info).ok());
  EXPECT_TRUE(info.snapshot_loaded);
  EXPECT_GT(info.snapshot_entries, 0u);
  // O(tail): only the entries past the snapshot were replayed from disk.
  EXPECT_LT(info.replayed_entries, total);
  EXPECT_EQ(info.snapshot_entries + info.replayed_entries, total);
  EXPECT_EQ(log.entry_count(), total);
  auto verified = AuditLog::VerifyLogFile(path, TestKey().public_key(), log.counter());
  ASSERT_TRUE(verified.ok()) << verified.status().message();
  EXPECT_EQ(*verified, total);
}

TEST(Recovery, CorruptSnapshotFallsBackToFullReplay) {
  const std::string path = FreshPath("recover_bad_snap.log");
  AuditLogOptions options = SegmentedOptions(path, /*segment_bytes=*/1024);
  options.snapshot_interval_bytes = 1024;
  size_t total = 0;
  {
    AuditLog log(options, TestKey());
    ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
    ASSERT_TRUE(log.Recover().ok());
    for (int batch = 0; batch < 10; ++batch) {
      FillLog(log, 1 + batch * 5, 5);
    }
    total = log.entry_count();
    ASSERT_TRUE(FileExists(SnapshotFilePath(path)));
  }
  auto snap = ReadFileBytes(SnapshotFilePath(path));
  ASSERT_TRUE(snap.ok());
  (*snap)[snap->size() / 2] ^= 0xff;
  ASSERT_TRUE(
      DurableWriteFile(SnapshotFilePath(path), *snap, /*append=*/false, /*sync=*/false).ok());

  AuditLog log(options, TestKey());
  ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
  AuditLog::RecoveryInfo info;
  ASSERT_TRUE(log.Recover(&info).ok());
  EXPECT_FALSE(info.snapshot_loaded);
  EXPECT_EQ(info.replayed_entries, total);
  EXPECT_EQ(log.entry_count(), total);
}

TEST(Recovery, SealedSnapshotNeedsMatchingIdentity) {
  const std::string path = FreshPath("recover_sealed_snap.log");
  sgx::Enclave producer(FastEnclave(), ToBytes("producer-code"), "signer-a");
  sgx::Enclave stranger(FastEnclave(), ToBytes("stranger-code"), "signer-b");
  AuditLogOptions options = SegmentedOptions(path, /*segment_bytes=*/1024);
  options.snapshot_interval_bytes = 1024;
  options.sealing_enclave = &producer;
  options.seal_policy = sgx::SealPolicy::kMrEnclave;
  size_t total = 0;
  {
    AuditLog log(options, TestKey());
    ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
    ASSERT_TRUE(log.Recover().ok());
    for (int batch = 0; batch < 10; ++batch) {
      FillLog(log, 1 + batch * 5, 5);
    }
    total = log.entry_count();
    ASSERT_TRUE(FileExists(SnapshotFilePath(path)));
  }
  // The right identity opens the seal and uses the snapshot.
  {
    AuditLog log(options, TestKey());
    ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
    AuditLog::RecoveryInfo info;
    ASSERT_TRUE(log.Recover(&info).ok());
    EXPECT_TRUE(info.snapshot_loaded);
    EXPECT_EQ(log.entry_count(), total);
  }
  // A different enclave identity cannot open it; recovery falls back to a
  // full replay of the (unsealed) segments and still restores the log.
  {
    AuditLogOptions other = options;
    other.sealing_enclave = &stranger;
    AuditLog log(other, TestKey());
    ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
    AuditLog::RecoveryInfo info;
    ASSERT_TRUE(log.Recover(&info).ok());
    EXPECT_FALSE(info.snapshot_loaded);
    EXPECT_EQ(info.replayed_entries, total);
    EXPECT_EQ(log.entry_count(), total);
  }
}

TEST(TrimArchive, TrimmedRowsMoveToArchiveAndFullHistoryMerges) {
  const std::string path = FreshPath("trim_archive.log");
  AuditLogOptions options = SegmentedOptions(path, /*segment_bytes=*/1024);
  options.archive_trimmed = true;
  AuditLog log(options, TestKey());
  ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
  ASSERT_TRUE(log.Recover().ok());
  FillLog(log, 1, 30);
  auto before = AuditLog::ReadVerifiedEntries(path);
  ASSERT_TRUE(before.ok());
  const std::vector<Bytes> pre_trim = SerializedEntries(*before);

  size_t deleted = 0;
  size_t archived = 0;
  ASSERT_TRUE(log.Trim({"DELETE FROM updates WHERE time <= 20"}, &deleted, &archived).ok());
  EXPECT_EQ(deleted, 20u);
  EXPECT_EQ(archived, 20u);
  EXPECT_EQ(log.archive_count(), 1u);
  ASSERT_EQ(ListArchiveFiles(path).size(), 1u);

  // The hot log still verifies after the rewrite.
  auto verified = AuditLog::VerifyLogFile(path, TestKey().public_key(), log.counter());
  ASSERT_TRUE(verified.ok()) << verified.status().message();
  EXPECT_EQ(*verified, 10u);

  // Archives + hot log reproduce the complete pre-trim history, in order.
  auto history = AuditLog::ReadFullHistory(path);
  ASSERT_TRUE(history.ok()) << history.status().message();
  const std::vector<Bytes> merged = SerializedEntries(*history);
  ASSERT_EQ(merged.size(), pre_trim.size());
  for (size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i], pre_trim[i]) << "history entry " << i << " lost or reordered by trim";
  }

  // A second trim stacks a second archive; history still complete.
  ASSERT_TRUE(log.Trim({"DELETE FROM updates WHERE time <= 25"}, &deleted, &archived).ok());
  EXPECT_EQ(deleted, 5u);
  EXPECT_EQ(log.archive_count(), 2u);
  history = AuditLog::ReadFullHistory(path);
  ASSERT_TRUE(history.ok());
  EXPECT_EQ(history->size(), pre_trim.size());
}

TEST(TrimArchive, SealedArchivesNeedIdentity) {
  const std::string path = FreshPath("trim_sealed_archive.log");
  sgx::Enclave producer(FastEnclave(), ToBytes("archive-code"), "signer-a");
  AuditLogOptions options = SegmentedOptions(path, /*segment_bytes=*/1024);
  options.archive_trimmed = true;
  options.sealing_enclave = &producer;
  options.seal_policy = sgx::SealPolicy::kMrEnclave;
  AuditLog log(options, TestKey());
  ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
  ASSERT_TRUE(log.Recover().ok());
  FillLog(log, 1, 10);
  size_t deleted = 0;
  ASSERT_TRUE(log.Trim({"DELETE FROM updates WHERE time <= 5"}, &deleted).ok());
  EXPECT_EQ(deleted, 5u);
  auto sealed = AuditLog::ReadArchivedEntries(path, {}, &producer, sgx::SealPolicy::kMrEnclave);
  ASSERT_TRUE(sealed.ok()) << sealed.status().message();
  EXPECT_EQ(sealed->size(), 5u);
  // Without the identity the seal stays shut.
  EXPECT_FALSE(AuditLog::ReadArchivedEntries(path).ok());
}

TEST(TrimArchive, RestartAfterTrimRecoversPostTrimLog) {
  const std::string path = FreshPath("trim_restart.log");
  AuditLogOptions options = SegmentedOptions(path, /*segment_bytes=*/512);
  options.archive_trimmed = true;
  options.snapshot_interval_bytes = 1024;
  {
    AuditLog log(options, TestKey());
    ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
    ASSERT_TRUE(log.Recover().ok());
    FillLog(log, 1, 30);
    size_t deleted = 0;
    ASSERT_TRUE(log.Trim({"DELETE FROM updates WHERE time <= 20"}, &deleted).ok());
    ASSERT_EQ(deleted, 20u);
  }
  AuditLog log(options, TestKey());
  ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
  AuditLog::RecoveryInfo info;
  ASSERT_TRUE(log.Recover(&info).ok());
  EXPECT_EQ(log.entry_count(), 10u);
  // Archives survive the restart: full history still reaches back past
  // the trim.
  auto history = AuditLog::ReadFullHistory(path);
  ASSERT_TRUE(history.ok());
  EXPECT_EQ(history->size(), 30u);
  // And the next trim appends archive index 2 (not overwriting 0/1).
  FillLog(log, 31, 5);
  size_t deleted = 0;
  ASSERT_TRUE(log.Trim({"DELETE FROM updates WHERE time <= 25"}, &deleted).ok());
  EXPECT_EQ(log.archive_count(), ListArchiveFiles(path).size());
  history = AuditLog::ReadFullHistory(path);
  ASSERT_TRUE(history.ok());
  EXPECT_EQ(history->size(), 35u);
}

// --- crash windows inside a trim ------------------------------------------
//
// A trim rewrites the retained log, then commits a head over it. A crash
// between the two, or in the middle of the rewrite, leaves a shortened log
// next to the pre-trim head. Recovery must refuse to start on it: the
// shortened log is indistinguishable from a truncation attack. (This is
// an availability gap append-only trims close.)

// Builds a 30-entry log, trims it to 10 and returns the pre-trim head.
Bytes TrimmedLogWithPreTrimHead(const std::string& path, const AuditLogOptions& options) {
  AuditLog log(options, TestKey());
  EXPECT_TRUE(log.ExecuteSchema(GitSchema()).ok());
  EXPECT_TRUE(log.Recover().ok());
  FillLog(log, 1, 30);
  auto head = ReadFileBytes(HeadFilePath(path));
  EXPECT_TRUE(head.ok());
  size_t deleted = 0;
  EXPECT_TRUE(log.Trim({"DELETE FROM updates WHERE time <= 20"}, &deleted).ok());
  EXPECT_EQ(deleted, 20u);
  return head.ok() ? *head : Bytes();
}

void ExpectRecoveryRefuses(const std::string& path, const AuditLogOptions& options) {
  AuditLog log(options, TestKey());
  ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
  Status s = log.Recover();
  ASSERT_FALSE(s.ok()) << "recovery started on a log shorter than its committed head";
  EXPECT_TRUE(s.code() == StatusCode::kDataLoss || s.code() == StatusCode::kPermissionDenied)
      << s.ToString();
  EXPECT_EQ(log.entry_count(), 0u);
}

TEST(TrimCrash, RewrittenLogWithPreTrimHeadRefusesToStart) {
  // Crash after the rewrite, before the post-trim CommitHead: the
  // segments hold the 10 survivors, the head still covers 30 entries.
  const std::string path = FreshPath("trim_crash_head.log");
  AuditLogOptions options = SegmentedOptions(path, /*segment_bytes=*/512);
  options.snapshot_interval_bytes = 1024;
  const Bytes pre_trim_head = TrimmedLogWithPreTrimHead(path, options);
  ASSERT_FALSE(pre_trim_head.empty());
  ASSERT_FALSE(ListSegmentFiles(path).empty());
  ASSERT_TRUE(
      DurableWriteFile(HeadFilePath(path), pre_trim_head, /*append=*/false, /*sync=*/false).ok());
  ExpectRecoveryRefuses(path, options);
}

TEST(TrimCrash, DeletedSegmentsWithPreTrimHeadRefuseToStart) {
  // Crash after the rewrite deleted the old segments, before it wrote the
  // new ones: no segment, no snapshot, the pre-trim head.
  const std::string path = FreshPath("trim_crash_deleted.log");
  AuditLogOptions options = SegmentedOptions(path, /*segment_bytes=*/512);
  options.snapshot_interval_bytes = 1024;
  const Bytes pre_trim_head = TrimmedLogWithPreTrimHead(path, options);
  ASSERT_FALSE(pre_trim_head.empty());
  for (uint32_t index : ListSegmentFiles(path)) {
    RemoveFileIfExists(SegmentFilePath(path, index));
  }
  RemoveFileIfExists(SnapshotFilePath(path));
  ASSERT_TRUE(
      DurableWriteFile(HeadFilePath(path), pre_trim_head, /*append=*/false, /*sync=*/false).ok());
  ExpectRecoveryRefuses(path, options);
}

TEST(Recovery, EditedFirstTicketOfOpenSegmentFailsRecovery) {
  // Caught when read, not carried into the next close where it would
  // surface later as a ticket range mismatch.
  const std::string path = FreshPath("recover_first_ticket.log");
  {
    AuditLog log(SegmentedOptions(path), TestKey());
    ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
    ASSERT_TRUE(log.Recover().ok());
    FillLog(log, 1, 40);
  }
  const auto segments = ListSegmentFiles(path);
  ASSERT_GT(segments.size(), 1u);
  const std::string last = SegmentFilePath(path, segments.back());
  auto data = ReadFileBytes(last);
  ASSERT_TRUE(data.ok());
  auto header = SegmentHeader::Decode(*data);
  ASSERT_TRUE(header.ok());
  ASSERT_EQ(header->closed, 0u);
  header->first_ticket += 1;
  const Bytes edited = header->Encode();
  std::copy(edited.begin(), edited.end(), data->begin());
  ASSERT_TRUE(DurableWriteFile(last, *data, /*append=*/false, /*sync=*/false).ok());
  AuditLog log(SegmentedOptions(path), TestKey());
  ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
  Status s = log.Recover();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("ticket range"), std::string::npos) << s.message();
}

TEST(Recovery, HeaderOnlyLastSegmentIsReopened) {
  // Crash between writing a new segment's header and its first record:
  // the empty segment is dropped and the next append recreates it with
  // the right first ticket.
  const std::string path = FreshPath("recover_header_only.log");
  Bytes head;
  {
    AuditLog log(SegmentedOptions(path), TestKey());
    ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
    ASSERT_TRUE(log.Recover().ok());
    FillLog(log, 1, 20);
    head = log.chain_head();
  }
  const uint32_t next = ListSegmentFiles(path).back() + 1;
  {
    auto last = ReadFileBytes(SegmentFilePath(path, next - 1));
    ASSERT_TRUE(last.ok());
    auto header = SegmentHeader::Decode(*last);
    ASSERT_TRUE(header.ok());
    // Close the last segment as a roll would, then open an empty one that
    // claims ticket 999.
    header->closed = 1;
    header->last_ticket = 20;
    ASSERT_TRUE(UpdateSegmentHeader(SegmentFilePath(path, next - 1), *header, false).ok());
    SegmentHeader empty;
    empty.index = next;
    empty.rewrite_epoch = header->rewrite_epoch;
    empty.prev_head = head;
    empty.first_ticket = 999;
    ASSERT_TRUE(DurableWriteFile(SegmentFilePath(path, next), empty.Encode(), /*append=*/false,
                                 /*sync=*/false)
                    .ok());
  }
  AuditLog log(SegmentedOptions(path), TestKey());
  ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
  ASSERT_TRUE(log.Recover().ok());
  EXPECT_EQ(log.entry_count(), 20u);
  FillLog(log, 21, 3);
  auto verified = AuditLog::VerifyLogFile(path, TestKey().public_key(), log.counter());
  ASSERT_TRUE(verified.ok()) << verified.status().message();
  EXPECT_EQ(*verified, 23u);
}

// --- shard-set epoch anchoring under crash ---

// Minimal SSM for the anchoring tests: one row per pair, no invariants.
// What is under test here is the epoch protocol, not checking.
class OpsModule : public ServiceModule {
 public:
  std::string name() const override { return "ops"; }
  std::vector<std::string> Schema() const override { return {"CREATE TABLE ops(time, body)"}; }
  std::vector<Invariant> Invariants() const override { return {}; }
  std::vector<std::string> TrimmingQueries() const override { return {}; }
  void Log(std::string_view request, std::string_view /*response*/, int64_t /*time*/,
           std::vector<LogTuple>* out) override {
    out->push_back(LogTuple{"ops", {db::Value(std::string(request))}});
  }
};

std::string FreshShardBase(const std::string& name, size_t shards) {
  std::string base = std::string(::testing::TempDir()) + "/" + name;
  for (size_t k = 0; k < shards; ++k) {
    RemoveLogFiles(base + ".shard" + std::to_string(k));
  }
  std::remove((base + ".epoch").c_str());
  return base;
}

ShardSetOptions ShardOptions(const std::string& base, size_t shards = 3) {
  ShardSetOptions options;
  options.shards = shards;
  options.libseal.enclave.inject_costs = false;
  options.libseal.use_async_calls = false;
  options.libseal.audit_log = SegmentedOptions(base);  // kDisk + recover
  options.libseal.logger.check_interval = 0;
  options.epoch_counter.inject_latency = false;
  options.recover = true;
  return options;
}

std::function<std::unique_ptr<ServiceModule>()> OpsFactory() {
  return [] { return std::make_unique<OpsModule>(); };
}

void PumpPairs(ShardSet& set, uint64_t first_key, int n) {
  for (int i = 0; i < n; ++i) {
    uint64_t key = first_key + static_cast<uint64_t>(i);
    auto r = set.OnPair(key, "op-" + std::to_string(key), "ok", false);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
}

size_t TotalEntries(ShardSet& set) {
  size_t total = 0;
  for (size_t k = 0; k < set.shard_count(); ++k) {
    total += set.logger(k)->log().entry_count();
  }
  return total;
}

// The crash window the file comment in shard.h argues about: the process
// dies AFTER every shard committed its head (phase 1) but BEFORE the epoch
// record was written (phase 2). The shards are then AHEAD of the record on
// disk — recovery must accept that as consistent (the heads are genuine)
// and re-anchor at the recovered state. Nothing is lost, nothing rolls
// back.
TEST(ShardRecovery, CrashBetweenHeadCommitAndEpochRecordAdvancesAll) {
  const std::string base = FreshShardBase("shard_crash_window.log", 3);
  {
    ShardSet set(ShardOptions(base), OpsFactory());
    ASSERT_TRUE(set.Init().ok());
    PumpPairs(set, 0, 30);
    ASSERT_TRUE(set.AnchorEpoch().ok());
    // More traffic past the anchor, then the crash: heads commit, the
    // record write never happens — the record on disk stays the stale
    // 30-entry anchor.
    PumpPairs(set, 1000, 15);
    set.crash_after_head_commit_for_testing = true;
    auto crashed = set.AnchorEpoch();
    ASSERT_FALSE(crashed.ok());
    EXPECT_EQ(crashed.status().code(), StatusCode::kUnavailable);
  }
  ShardSet set(ShardOptions(base), OpsFactory());
  ASSERT_TRUE(set.Init().ok()) << "recovery must accept shards AHEAD of the anchored record";
  EXPECT_EQ(TotalEntries(set), 45u);  // nothing rolled back, nothing lost
  // Init re-anchored the recovered state: the record now matches the live
  // shard heads, not the stale pre-crash ones.
  auto rec = ShardSet::ReadEpochRecord(set.epoch_path(), set.anchor_public_key());
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  ASSERT_EQ(rec->heads.size(), 3u);
  for (const ShardHeadInfo& head : rec->heads) {
    EXPECT_EQ(head.entry_count, set.logger(head.shard)->log().entry_count());
    EXPECT_EQ(head.chain_head, set.logger(head.shard)->log().chain_head());
  }
  // And the recovered set keeps accepting traffic and anchoring.
  PumpPairs(set, 2000, 5);
  ASSERT_TRUE(set.AnchorEpoch().ok());
  EXPECT_EQ(TotalEntries(set), 50u);
}

// A clean restart recovers every shard and re-anchors at exactly the
// recovered heads.
TEST(ShardRecovery, CleanRestartReanchorsAtRecoveredHeads) {
  const std::string base = FreshShardBase("shard_clean_restart.log", 3);
  {
    ShardSet set(ShardOptions(base), OpsFactory());
    ASSERT_TRUE(set.Init().ok());
    PumpPairs(set, 0, 24);
    ASSERT_TRUE(set.AnchorEpoch().ok());
  }
  ShardSet set(ShardOptions(base), OpsFactory());
  ASSERT_TRUE(set.Init().ok());
  EXPECT_EQ(TotalEntries(set), 24u);
  auto rec = ShardSet::ReadEpochRecord(set.epoch_path(), set.anchor_public_key());
  ASSERT_TRUE(rec.ok());
  for (const ShardHeadInfo& head : rec->heads) {
    EXPECT_EQ(head.entry_count, set.logger(head.shard)->log().entry_count());
  }
}

// The attack the shared epoch record exists to catch: per-shard ROTE
// counters accept a shard restored from an old backup together with its
// old counter state, but the anchored head vector pins ALL shards to one
// epoch — a shard recovering BEHIND its anchored head is a rollback.
TEST(ShardRecovery, IndividuallyRolledBackShardIsDetected) {
  const std::string base = FreshShardBase("shard_rollback.log", 3);
  {
    ShardSet set(ShardOptions(base), OpsFactory());
    ASSERT_TRUE(set.Init().ok());
    PumpPairs(set, 0, 30);
    ASSERT_TRUE(set.AnchorEpoch().ok());
  }
  // The operator "restores" shard 1 from before any traffic existed.
  RemoveLogFiles(base + ".shard1");
  ShardSet set(ShardOptions(base), OpsFactory());
  Status s = set.Init();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kPermissionDenied);
  EXPECT_NE(s.message().find("rolled back past anchored epoch"), std::string::npos)
      << s.message();
}

// Modifying a shard's entries without changing its length is equally
// caught: the anchored chain head no longer matches.
TEST(ShardRecovery, AnchoredChainHeadPinsEntryContents) {
  const std::string base = FreshShardBase("shard_content.log", 2);
  {
    ShardSet set(ShardOptions(base, 2), OpsFactory());
    ASSERT_TRUE(set.Init().ok());
    PumpPairs(set, 0, 20);
    ASSERT_TRUE(set.AnchorEpoch().ok());
  }
  // Find the shard 0 segment files and flip one record byte. Per-shard
  // recovery itself rejects the forged chain before the epoch check runs —
  // either way Init must fail.
  const std::string shard0 = base + ".shard0";
  const auto segments = ListSegmentFiles(shard0);
  ASSERT_FALSE(segments.empty());
  auto data = ReadFileBytes(SegmentFilePath(shard0, segments[0]));
  ASSERT_TRUE(data.ok());
  ASSERT_GT(data->size(), kSegmentHeaderSize + 10);
  (*data)[kSegmentHeaderSize + 9] ^= 0x01;
  ASSERT_TRUE(DurableWriteFile(SegmentFilePath(shard0, segments[0]), *data, /*append=*/false,
                               /*sync=*/false)
                  .ok());
  ShardSet set(ShardOptions(base, 2), OpsFactory());
  EXPECT_FALSE(set.Init().ok());
}

TEST(Recovery, DoubleRecoverIsRejected) {
  const std::string path = FreshPath("recover_twice.log");
  AuditLog log(SegmentedOptions(path), TestKey());
  ASSERT_TRUE(log.ExecuteSchema(GitSchema()).ok());
  ASSERT_TRUE(log.Recover().ok());
  EXPECT_FALSE(log.Recover().ok());
}

}  // namespace
}  // namespace seal::core
