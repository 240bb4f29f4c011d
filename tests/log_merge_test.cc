// §3.2: merging partial logs from multiple LibSEAL instances before
// invariant checking. The key scenario: a client's pushes land on one
// instance and its fetches on another (a load balancer round-robins), so
// NEITHER partial log alone can check soundness -- only the merged view.
#include <gtest/gtest.h>

#include <memory>

#include "src/core/log_merge.h"
#include "src/core/log_segment.h"
#include "src/core/logger.h"
#include "src/services/git_service.h"
#include "src/ssm/git_ssm.h"

namespace seal::core {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// One LibSEAL instance: its own log key, counter, persisted log.
struct Instance {
  explicit Instance(const std::string& name)
      : key(crypto::EcdsaPrivateKey::FromSeed(ToBytes("merge-" + name))),
        path(TempPath("merge_" + name + ".log")) {
    AuditLogOptions log_options;
    log_options.mode = PersistenceMode::kDisk;
    log_options.path = path;
    log_options.counter_options.inject_latency = false;
    LoggerOptions logger_options;
    logger_options.check_interval = 0;  // checking happens after the merge
    logger = std::make_unique<AuditLogger>(std::make_unique<ssm::GitModule>(), log_options,
                                           logger_options, key);
    EXPECT_TRUE(logger->Init().ok());
  }

  void Pump(services::GitBackend& backend, const http::HttpRequest& request) {
    http::HttpResponse response = backend.Handle(request);
    auto r = logger->OnPair(request.Serialize(), response.Serialize(), false);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  PartialLog Partial() const {
    PartialLog partial;
    partial.path = path;
    partial.log_public_key = key.public_key();
    partial.counter = &logger->log().counter();
    return partial;
  }

  crypto::EcdsaPrivateKey key;
  std::string path;
  std::unique_ptr<AuditLogger> logger;
};

// Runs the Git invariants on a merged database.
size_t MergedViolations(db::Database& db) {
  ssm::GitModule module;
  size_t violations = 0;
  for (const Invariant& invariant : module.Invariants()) {
    auto r = db.Execute(invariant.query);
    EXPECT_TRUE(r.ok()) << invariant.name << ": " << r.status().ToString();
    if (r.ok()) {
      violations += r->rows.size();
    }
  }
  return violations;
}

TEST(LogMerge, SplitTrafficMergesAndChecksClean) {
  services::GitBackend backend;  // ONE service state behind both instances
  Instance a("clean_a");
  Instance b("clean_b");
  // Pushes hit instance A, fetches hit instance B.
  a.Pump(backend, services::MakeGitPush("repo", {{"main", "c1"}}));
  a.Pump(backend, services::MakeGitPush("repo", {{"main", "c2"}}));
  b.Pump(backend, services::MakeGitFetch("repo"));

  ssm::GitModule module;
  auto merged = MergeVerifiedLogs({a.Partial(), b.Partial()}, module);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->instances, 2u);
  EXPECT_EQ(merged->total_entries, 3u);  // 2 updates + 1 advertisement
  EXPECT_EQ(MergedViolations(merged->database), 0u);
}

TEST(LogMerge, CrossInstanceRollbackOnlyVisibleAfterMerge) {
  services::GitBackend backend;
  Instance a("attack_a");
  Instance b("attack_b");
  a.Pump(backend, services::MakeGitPush("repo", {{"main", "c1"}}));
  a.Pump(backend, services::MakeGitPush("repo", {{"main", "c2"}}));
  backend.set_attack(services::GitBackend::Attack::kRollback);
  b.Pump(backend, services::MakeGitFetch("repo"));

  // Instance B alone has only the advertisement: its local invariants
  // cannot fire (no updates to compare against).
  auto local = b.logger->CheckInvariants();
  ASSERT_TRUE(local.ok());
  EXPECT_TRUE(local->clean());

  // The merged view reveals the rollback.
  ssm::GitModule module;
  auto merged = MergeVerifiedLogs({a.Partial(), b.Partial()}, module);
  ASSERT_TRUE(merged.ok());
  EXPECT_GT(MergedViolations(merged->database), 0u);
}

TEST(LogMerge, OrderPreservedWithinInstance) {
  services::GitBackend backend;
  Instance a("order_a");
  for (int i = 1; i <= 4; ++i) {
    a.Pump(backend, services::MakeGitPush("repo", {{"main", "c" + std::to_string(i)}}));
  }
  ssm::GitModule module;
  auto merged = MergeVerifiedLogs({a.Partial()}, module);
  ASSERT_TRUE(merged.ok());
  auto rows = merged->database.Execute("SELECT cid FROM updates ORDER BY time");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 4u);
  EXPECT_EQ(rows->rows[0][0].AsText(), "c1");
  EXPECT_EQ(rows->rows[3][0].AsText(), "c4");
}

TEST(LogMerge, TamperedPartialRejectsWholeMerge) {
  services::GitBackend backend;
  Instance a("tamper_a");
  Instance b("tamper_b");
  a.Pump(backend, services::MakeGitPush("repo", {{"main", "c1"}}));
  b.Pump(backend, services::MakeGitFetch("repo"));
  // Provider edits instance A's log.
  std::FILE* f = std::fopen(SegmentFilePath(a.path, 0).c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, kSegmentHeaderSize + 25, SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, kSegmentHeaderSize + 25, SEEK_SET);
  std::fputc(c ^ 0x10, f);
  std::fclose(f);
  ssm::GitModule module;
  auto merged = MergeVerifiedLogs({a.Partial(), b.Partial()}, module);
  EXPECT_FALSE(merged.ok());
  EXPECT_NE(merged.status().message().find("instance 0"), std::string::npos);
}

TEST(LogMerge, WrongKeyRejected) {
  services::GitBackend backend;
  Instance a("wrongkey_a");
  a.Pump(backend, services::MakeGitPush("repo", {{"main", "c1"}}));
  PartialLog partial = a.Partial();
  partial.log_public_key =
      crypto::EcdsaPrivateKey::FromSeed(ToBytes("not-the-enclave")).public_key();
  ssm::GitModule module;
  EXPECT_FALSE(MergeVerifiedLogs({partial}, module).ok());
}

// Regression: two partials presenting the same (instance, counter round)
// must be rejected. Before the duplicate check, MergeVerifiedLogs would
// happily interleave the same shard log twice — both copies verify
// individually — and every entry counted double as "evidence".
TEST(LogMerge, DuplicatePartialRejected) {
  services::GitBackend backend;
  Instance a("dup_a");
  Instance b("dup_b");
  a.Pump(backend, services::MakeGitPush("repo", {{"main", "c1"}}));
  a.Pump(backend, services::MakeGitPush("repo", {{"main", "c2"}}));
  b.Pump(backend, services::MakeGitFetch("repo"));

  ssm::GitModule module;
  auto merged = MergeVerifiedLogs({a.Partial(), b.Partial(), a.Partial()}, module);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kPermissionDenied)
      << merged.status().ToString();
  EXPECT_NE(merged.status().message().find("duplicate partial log"), std::string::npos)
      << merged.status().message();
  // The message names both offending indices.
  EXPECT_NE(merged.status().message().find("instances 0 and 2"), std::string::npos)
      << merged.status().message();

  // The same set without the duplicate merges fine — the check keys on the
  // instance's log key, not on superficial path equality.
  auto clean = MergeVerifiedLogs({a.Partial(), b.Partial()}, module);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_EQ(clean->total_entries, 3u);
}

TEST(LogMerge, EmptyInputYieldsEmptyDatabase) {
  ssm::GitModule module;
  auto merged = MergeVerifiedLogs({}, module);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->total_entries, 0u);
  auto rows = merged->database.Execute("SELECT * FROM updates");
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->rows.empty());
}

}  // namespace
}  // namespace seal::core
