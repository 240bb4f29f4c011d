// SSM tests: drive each service's handler directly (no TLS), feed the
// request/response pairs through an AuditLogger, and check that each
// paper-named attack is detected while clean runs stay clean.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/core/logger.h"
#include "src/services/dropbox_service.h"
#include "src/services/git_service.h"
#include "src/services/owncloud_service.h"
#include "src/ssm/dropbox_ssm.h"
#include "src/ssm/git_ssm.h"
#include "src/ssm/owncloud_ssm.h"

namespace seal::ssm {
namespace {

using core::AuditLogOptions;
using core::AuditLogger;
using core::CheckReport;
using core::LoggerOptions;

// When `reports` is set, every completed round's report is appended to it
// (from the checker thread); tests that read it call WaitForChecks() after
// each pair, and declare the vector before the logger so it outlives it.
template <typename Module>
std::unique_ptr<AuditLogger> MakeLogger(size_t check_interval = 0,
                                        std::vector<CheckReport>* reports = nullptr) {
  AuditLogOptions log_options;
  log_options.counter_options.inject_latency = false;
  LoggerOptions logger_options;
  logger_options.check_interval = check_interval;
  if (reports != nullptr) {
    logger_options.on_report = [reports](const CheckReport& r) { reports->push_back(r); };
  }
  auto logger = std::make_unique<AuditLogger>(
      std::make_unique<Module>(), log_options, logger_options,
      crypto::EcdsaPrivateKey::FromSeed(ToBytes("ssm-test")));
  EXPECT_TRUE(logger->Init().ok());
  return logger;
}

// Runs one request through the service and the logger.
template <typename Service>
void Pump(Service& service, AuditLogger& logger, const http::HttpRequest& request) {
  http::HttpResponse response = service.Handle(request);
  auto r = logger.OnPair(request.Serialize(), response.Serialize(), false);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
}

// --- Git ---

class GitSsmTest : public ::testing::Test {
 protected:
  void Replay(int pushes) {
    for (int i = 1; i <= pushes; ++i) {
      Pump(backend_, *logger_,
           services::MakeGitPush("repo", {{"main", "c" + std::to_string(i)}}));
    }
  }

  CheckReport Check() {
    auto report = logger_->CheckInvariants();
    EXPECT_TRUE(report.ok());
    return *report;
  }

  services::GitBackend backend_;
  std::unique_ptr<AuditLogger> logger_ = MakeLogger<GitModule>();
};

TEST_F(GitSsmTest, ParsesPushAndAdvertisement) {
  Pump(backend_, *logger_, services::MakeGitPush("repo", {{"main", "c1"}, {"dev", "c2"}}));
  Pump(backend_, *logger_, services::MakeGitFetch("repo"));
  auto updates = logger_->log().Query("SELECT repo, branch, cid, type FROM updates ORDER BY branch");
  ASSERT_TRUE(updates.ok());
  ASSERT_EQ(updates->rows.size(), 2u);
  EXPECT_EQ(updates->rows[0][1].AsText(), "dev");
  EXPECT_EQ(updates->rows[1][2].AsText(), "c1");
  auto ads = logger_->log().Query("SELECT branch FROM advertisements");
  ASSERT_TRUE(ads.ok());
  EXPECT_EQ(ads->rows.size(), 2u);
}

TEST_F(GitSsmTest, CleanRunHasNoViolations) {
  Replay(5);
  Pump(backend_, *logger_, services::MakeGitFetch("repo"));
  CheckReport report = Check();
  EXPECT_TRUE(report.clean()) << report.Summary();
}

TEST_F(GitSsmTest, RollbackAttackDetected) {
  Replay(3);
  backend_.set_attack(services::GitBackend::Attack::kRollback);
  Pump(backend_, *logger_, services::MakeGitFetch("repo"));
  CheckReport report = Check();
  ASSERT_FALSE(report.clean());
  EXPECT_EQ(report.violations[0].invariant, "git-soundness");
}

TEST_F(GitSsmTest, TeleportAttackDetected) {
  Pump(backend_, *logger_, services::MakeGitPush("repo", {{"main", "c1"}}));
  Pump(backend_, *logger_, services::MakeGitPush("repo", {{"dev", "c2"}}));
  backend_.set_attack(services::GitBackend::Attack::kTeleport);
  Pump(backend_, *logger_, services::MakeGitFetch("repo"));
  CheckReport report = Check();
  ASSERT_FALSE(report.clean());
  EXPECT_EQ(report.violations[0].invariant, "git-soundness");
}

TEST_F(GitSsmTest, ReferenceDeletionDetected) {
  Pump(backend_, *logger_, services::MakeGitPush("repo", {{"main", "c1"}}));
  Pump(backend_, *logger_, services::MakeGitPush("repo", {{"dev", "c2"}}));
  backend_.set_attack(services::GitBackend::Attack::kRefDeletion);
  Pump(backend_, *logger_, services::MakeGitFetch("repo"));
  CheckReport report = Check();
  ASSERT_FALSE(report.clean());
  EXPECT_EQ(report.violations[0].invariant, "git-completeness");
}

TEST_F(GitSsmTest, LegitimateDeletionIsClean) {
  Pump(backend_, *logger_, services::MakeGitPush("repo", {{"main", "c1"}, {"dev", "c2"}}));
  Pump(backend_, *logger_, services::MakeGitPush("repo", {}, {"dev"}));
  Pump(backend_, *logger_, services::MakeGitFetch("repo"));
  CheckReport report = Check();
  EXPECT_TRUE(report.clean()) << report.Summary();
}

TEST_F(GitSsmTest, TrimmingKeepsDetectionWorking) {
  Replay(4);
  Pump(backend_, *logger_, services::MakeGitFetch("repo"));
  ASSERT_TRUE(logger_->Trim().ok());
  // Post-trim rollback still caught: the latest update was retained.
  backend_.set_attack(services::GitBackend::Attack::kRollback);
  Pump(backend_, *logger_, services::MakeGitFetch("repo"));
  CheckReport report = Check();
  ASSERT_FALSE(report.clean());
}

TEST_F(GitSsmTest, IntervalCheckFiresAutomatically) {
  std::vector<CheckReport> reports;
  auto logger = MakeLogger<GitModule>(/*check_interval=*/3, &reports);
  services::GitBackend backend;
  http::HttpResponse rsp;
  for (int i = 1; i <= 9; ++i) {
    auto req = services::MakeGitPush("repo", {{"main", "c" + std::to_string(i)}});
    rsp = backend.Handle(req);
    auto r = logger->OnPair(req.Serialize(), rsp.Serialize(), false);
    ASSERT_TRUE(r.ok());
    logger->WaitForChecks();
    EXPECT_EQ(reports.size(), static_cast<size_t>(i / 3));
  }
  EXPECT_EQ(reports.size(), 3u);
}

// --- ownCloud ---

class OwnCloudSsmTest : public ::testing::Test {
 protected:
  CheckReport Check() {
    auto report = logger_->CheckInvariants();
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return *report;
  }

  services::OwnCloudService service_;
  std::unique_ptr<AuditLogger> logger_ = MakeLogger<OwnCloudModule>();
};

TEST_F(OwnCloudSsmTest, CleanSessionIsClean) {
  Pump(service_, *logger_, services::MakeOwnCloudSync("doc", 0, "alice", 1, "hello"));
  Pump(service_, *logger_, services::MakeOwnCloudSync("doc", 0, "bob", 1, " world"));
  Pump(service_, *logger_, services::MakeOwnCloudSnapshot("doc", 0, "alice", "hello world"));
  Pump(service_, *logger_, services::MakeOwnCloudJoin("doc", "carol"));
  CheckReport report = Check();
  EXPECT_TRUE(report.clean()) << report.Summary();
}

TEST_F(OwnCloudSsmTest, LostEditDetected) {
  Pump(service_, *logger_, services::MakeOwnCloudSync("doc", 0, "alice", 1, "a"));
  Pump(service_, *logger_, services::MakeOwnCloudSync("doc", 0, "alice", 2, "b"));
  service_.set_attack(services::OwnCloudService::Attack::kDropUpdate);
  Pump(service_, *logger_, services::MakeOwnCloudJoin("doc", "bob"));
  CheckReport report = Check();
  ASSERT_FALSE(report.clean());
  EXPECT_EQ(report.violations[0].invariant, "owncloud-update-prefix");
}

TEST_F(OwnCloudSsmTest, StaleSnapshotDetected) {
  Pump(service_, *logger_, services::MakeOwnCloudSnapshot("doc", 0, "alice", "v1"));
  Pump(service_, *logger_, services::MakeOwnCloudSnapshot("doc", 0, "alice", "v2"));
  service_.set_attack(services::OwnCloudService::Attack::kStaleSnapshot);
  Pump(service_, *logger_, services::MakeOwnCloudJoin("doc", "bob"));
  CheckReport report = Check();
  ASSERT_FALSE(report.clean());
  EXPECT_EQ(report.violations[0].invariant, "owncloud-snapshot-match");
}

TEST_F(OwnCloudSsmTest, MultipleDocumentsIndependent) {
  Pump(service_, *logger_, services::MakeOwnCloudSync("doc-a", 0, "alice", 1, "x"));
  Pump(service_, *logger_, services::MakeOwnCloudSync("doc-b", 0, "bob", 1, "y"));
  Pump(service_, *logger_, services::MakeOwnCloudJoin("doc-a", "carol"));
  Pump(service_, *logger_, services::MakeOwnCloudJoin("doc-b", "carol"));
  EXPECT_TRUE(Check().clean());
}

TEST_F(OwnCloudSsmTest, TrimmingKeepsLatestSessionData) {
  Pump(service_, *logger_, services::MakeOwnCloudSync("doc", 0, "alice", 1, "x"));
  Pump(service_, *logger_, services::MakeOwnCloudSnapshot("doc", 0, "alice", "x"));
  Pump(service_, *logger_, services::MakeOwnCloudJoin("doc", "bob"));
  ASSERT_TRUE(logger_->Trim().ok());
  EXPECT_EQ(logger_->log().database().TableSize("oc_joins"), 0u);
  EXPECT_EQ(logger_->log().database().TableSize("oc_snapshots"), 1u);
  // Detection still works after trimming.
  service_.set_attack(services::OwnCloudService::Attack::kDropUpdate);
  Pump(service_, *logger_, services::MakeOwnCloudJoin("doc", "dave"));
  EXPECT_FALSE(Check().clean());
}

// --- Dropbox ---

class DropboxSsmTest : public ::testing::Test {
 protected:
  CheckReport Check() {
    auto report = logger_->CheckInvariants();
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return *report;
  }

  services::DropboxService service_;
  std::unique_ptr<AuditLogger> logger_ = MakeLogger<DropboxModule>();
};

TEST_F(DropboxSsmTest, CleanChurnIsClean) {
  Pump(service_, *logger_,
       services::MakeCommitBatch("acct", "h1", {{"a.txt", "bl-a1", 100}, {"b.txt", "bl-b1", 200}}));
  Pump(service_, *logger_, services::MakeListRequest("acct"));
  Pump(service_, *logger_, services::MakeCommitBatch("acct", "h1", {{"a.txt", "bl-a2", 150}}));
  Pump(service_, *logger_, services::MakeListRequest("acct"));
  CheckReport report = Check();
  EXPECT_TRUE(report.clean()) << report.Summary();
}

TEST_F(DropboxSsmTest, DeletionReflectedInList) {
  Pump(service_, *logger_, services::MakeCommitBatch("acct", "h1", {{"a.txt", "bl-a", 100}}));
  Pump(service_, *logger_, services::MakeCommitBatch("acct", "h1", {{"a.txt", "", -1}}));
  Pump(service_, *logger_, services::MakeListRequest("acct"));
  EXPECT_TRUE(Check().clean());
}

TEST_F(DropboxSsmTest, CorruptBlocklistDetected) {
  Pump(service_, *logger_, services::MakeCommitBatch("acct", "h1", {{"a.txt", "bl-a", 100}}));
  service_.set_attack(services::DropboxService::Attack::kCorruptBlocklist);
  Pump(service_, *logger_, services::MakeListRequest("acct"));
  CheckReport report = Check();
  ASSERT_FALSE(report.clean());
  EXPECT_EQ(report.violations[0].invariant, "dropbox-blocklist-soundness");
}

TEST_F(DropboxSsmTest, OmittedFileDetected) {
  Pump(service_, *logger_,
       services::MakeCommitBatch("acct", "h1", {{"a.txt", "bl-a", 100}, {"b.txt", "bl-b", 200}}));
  service_.set_attack(services::DropboxService::Attack::kOmitFile);
  Pump(service_, *logger_, services::MakeListRequest("acct"));
  CheckReport report = Check();
  ASSERT_FALSE(report.clean());
  EXPECT_EQ(report.violations[0].invariant, "dropbox-list-completeness");
}

TEST_F(DropboxSsmTest, TrimmingKeepsLatestCommitPerFile) {
  Pump(service_, *logger_, services::MakeCommitBatch("acct", "h1", {{"a.txt", "bl-1", 100}}));
  Pump(service_, *logger_, services::MakeCommitBatch("acct", "h1", {{"a.txt", "bl-2", 100}}));
  Pump(service_, *logger_, services::MakeListRequest("acct"));
  ASSERT_TRUE(logger_->Trim().ok());
  auto rows = logger_->log().Query("SELECT blocks FROM commit_batch");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][0].AsText(), "bl-2");
  // Post-trim detection still works.
  service_.set_attack(services::DropboxService::Attack::kCorruptBlocklist);
  Pump(service_, *logger_, services::MakeListRequest("acct"));
  EXPECT_FALSE(Check().clean());
}

TEST_F(DropboxSsmTest, WorkloadDrivesServiceWithoutViolations) {
  std::vector<CheckReport> reports;
  auto logger = MakeLogger<DropboxModule>(/*check_interval=*/20, &reports);
  services::DropboxService service;
  services::DropboxWorkload workload("acct", 7);
  size_t seen = 0;
  for (int i = 0; i < 100; ++i) {
    auto req = workload.Next();
    auto rsp = service.Handle(req);
    auto r = logger->OnPair(req.Serialize(), rsp.Serialize(), false);
    ASSERT_TRUE(r.ok());
    logger->WaitForChecks();
    for (; seen < reports.size(); ++seen) {
      EXPECT_TRUE(reports[seen].clean()) << reports[seen].Summary();
    }
  }
  // A failed round completes without a report: every round must have
  // published one, and the interval must have fired at least once.
  EXPECT_FALSE(reports.empty());
  EXPECT_EQ(reports.size(), logger->checker()->rounds_completed());
}

}  // namespace
}  // namespace seal::ssm
