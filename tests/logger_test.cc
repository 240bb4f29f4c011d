#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "src/core/logger.h"
#include "src/obs/obs.h"
#include "src/services/git_service.h"
#include "src/ssm/git_ssm.h"

namespace seal::core {
namespace {

std::unique_ptr<AuditLogger> MakeLogger(LoggerOptions logger_options,
                                        PersistenceMode mode = PersistenceMode::kMemory,
                                        const std::string& path = "") {
  AuditLogOptions log_options;
  log_options.mode = mode;
  log_options.path = path;
  log_options.counter_options.inject_latency = false;
  auto logger = std::make_unique<AuditLogger>(std::make_unique<ssm::GitModule>(), log_options,
                                              logger_options,
                                              crypto::EcdsaPrivateKey::FromSeed(ToBytes("lt")));
  EXPECT_TRUE(logger->Init().ok());
  return logger;
}

Result<std::optional<CheckReport>> PumpPush(AuditLogger& logger, services::GitBackend& backend,
                                            int commit, bool force = false) {
  auto req = services::MakeGitPush("r", {{"main", "c" + std::to_string(commit)}});
  auto rsp = backend.Handle(req);
  return logger.OnPair(req.Serialize(), rsp.Serialize(), force);
}

TEST(Logger, LogicalTimeAdvancesPerPair) {
  auto logger = MakeLogger({.check_interval = 0});
  services::GitBackend backend;
  ASSERT_TRUE(PumpPush(*logger, backend, 1).ok());
  ASSERT_TRUE(PumpPush(*logger, backend, 2).ok());
  auto rows = logger->log().Query("SELECT time FROM updates ORDER BY time");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 2u);
  EXPECT_EQ(rows->rows[0][0].AsInt(), 1);
  EXPECT_EQ(rows->rows[1][0].AsInt(), 2);
  EXPECT_EQ(logger->pairs_logged(), 2);
}

TEST(Logger, NoCheckWhenIntervalDisabled) {
  auto logger = MakeLogger({.check_interval = 0});
  services::GitBackend backend;
  for (int i = 1; i <= 50; ++i) {
    auto r = PumpPush(*logger, backend, i);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r->has_value());
  }
}

TEST(Logger, IntervalTriggersCheckAndTrim) {
  // Interval rounds report through on_report; quiescing after every pair
  // completes each round before the next pair is logged.
  std::vector<CheckReport> reports;
  auto logger = MakeLogger({.check_interval = 10, .on_report = [&](const CheckReport& r) {
                              reports.push_back(r);
                            }});
  services::GitBackend backend;
  int checks = 0;
  for (int i = 1; i <= 30; ++i) {
    auto r = PumpPush(*logger, backend, i);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r->has_value());  // only forced pairs return a report
    logger->WaitForChecks();
    if (reports.size() > static_cast<size_t>(checks)) {
      ++checks;
      ASSERT_EQ(reports.size(), static_cast<size_t>(checks));
      EXPECT_EQ(i % 10, 0);
      EXPECT_GT(reports.back().invariants_checked, 0u);
      EXPECT_GE(reports.back().check_nanos, 0);
    }
  }
  EXPECT_EQ(checks, 3);
  // Trimming ran: only the latest update per branch survives.
  EXPECT_EQ(logger->log().database().TableSize("updates"), 1u);
}

TEST(Logger, ManualTrimIsCounted) {
  // A manual Trim() runs the same step as a round's trim, metrics included.
  auto logger = MakeLogger({.check_interval = 0});
  services::GitBackend backend;
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(PumpPush(*logger, backend, i).ok());
  }
  const obs::Snapshot before = obs::Registry::Global().TakeSnapshot();
  ASSERT_TRUE(logger->Trim().ok());
  const obs::Snapshot after = obs::Registry::Global().TakeSnapshot();
  EXPECT_EQ(logger->log().database().TableSize("updates"), 1u);
  EXPECT_EQ(after.counter("logger_trims_total"), before.counter("logger_trims_total") + 1);
  EXPECT_EQ(after.counter("logger_trimmed_rows_total"),
            before.counter("logger_trimmed_rows_total") + 2);
  const obs::HistogramSnapshot* trim_nanos_before = before.histogram("logger_trim_nanos");
  const obs::HistogramSnapshot* trim_nanos_after = after.histogram("logger_trim_nanos");
  ASSERT_NE(trim_nanos_after, nullptr);
  EXPECT_EQ(trim_nanos_after->count,
            (trim_nanos_before != nullptr ? trim_nanos_before->count : 0) + 1);
}

TEST(Logger, ForcedCheckRunsImmediately) {
  auto logger = MakeLogger({.check_interval = 0});
  services::GitBackend backend;
  auto r = PumpPush(*logger, backend, 1, /*force=*/true);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->has_value());
  EXPECT_TRUE((*r)->clean());
}

TEST(Logger, ForcedChecksAreRateLimited) {
  LoggerOptions options;
  options.check_interval = 0;
  options.forced_check_min_gap = 5;  // at most one forced check per 5 pairs
  auto logger = MakeLogger(options);
  services::GitBackend backend;
  int granted = 0;
  for (int i = 1; i <= 10; ++i) {
    auto r = PumpPush(*logger, backend, i, /*force=*/true);
    ASSERT_TRUE(r.ok());
    if (r->has_value()) {
      ++granted;
    }
  }
  // Pair 1 and pair 6: two grants in 10 back-to-back demands.
  EXPECT_EQ(granted, 2);
}

TEST(Logger, TuplelessPairsDoNotAdvanceInterval) {
  std::vector<CheckReport> reports;
  auto logger = MakeLogger({.check_interval = 3, .on_report = [&](const CheckReport& r) {
                              reports.push_back(r);
                            }});
  services::GitBackend backend;
  ASSERT_TRUE(PumpPush(*logger, backend, 1).ok());
  logger->WaitForChecks();
  ASSERT_TRUE(PumpPush(*logger, backend, 2).ok());
  logger->WaitForChecks();
  // A burst of unparseable traffic logs nothing, so it must not push the
  // interval over the edge (regression: the counter used to tick per pair,
  // not per contributing pair).
  for (int i = 0; i < 5; ++i) {
    auto r = logger->OnPair("junk", "junk", false);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r->has_value());
    logger->WaitForChecks();
    EXPECT_TRUE(reports.empty());
  }
  // The third contributing pair is what triggers the check.
  auto r = PumpPush(*logger, backend, 3);
  ASSERT_TRUE(r.ok());
  logger->WaitForChecks();
  EXPECT_EQ(reports.size(), 1u);
}

TEST(Logger, ForcedCheckOnIntervalBoundaryKeepsBudget) {
  LoggerOptions options;
  options.check_interval = 3;
  options.forced_check_min_gap = 100;  // one forced check per 100 pairs
  auto logger = MakeLogger(options);
  services::GitBackend backend;
  ASSERT_TRUE(PumpPush(*logger, backend, 1).ok());
  ASSERT_TRUE(PumpPush(*logger, backend, 2).ok());
  // A demand landing exactly on the interval boundary is satisfied by the
  // interval check and must not spend the forced budget...
  auto r = PumpPush(*logger, backend, 3, /*force=*/true);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->has_value());
  // ...so a demand on the very next pair is still granted.
  r = PumpPush(*logger, backend, 4, /*force=*/true);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->has_value());
  // And now the budget IS spent: an immediate third demand is denied.
  r = PumpPush(*logger, backend, 5, /*force=*/true);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->has_value());
}

TEST(Logger, LastReportRetained) {
  auto logger = MakeLogger({.check_interval = 0});
  services::GitBackend backend;
  EXPECT_FALSE(logger->last_report().has_value());
  ASSERT_TRUE(PumpPush(*logger, backend, 1, true).ok());
  ASSERT_TRUE(logger->last_report().has_value());
  EXPECT_TRUE(logger->last_report()->clean());
}

TEST(Logger, ReportSummaryFormats) {
  CheckReport clean;
  clean.invariants_checked = 2;
  EXPECT_EQ(clean.Summary(), "ok 2 invariants");
  CheckReport dirty;
  dirty.invariants_checked = 2;
  CheckReport::Violation v;
  v.invariant = "git-soundness";
  v.rows.rows.push_back({});
  dirty.violations.push_back(std::move(v));
  EXPECT_EQ(dirty.Summary(), "VIOLATION git-soundness(1)");
}

TEST(Logger, UnparseableTrafficIsIgnoredNotFatal) {
  auto logger = MakeLogger({.check_interval = 0});
  auto r = logger->OnPair("not http at all", "also not http", false);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(logger->log().entry_count(), 0u);
  EXPECT_EQ(logger->pairs_logged(), 1);  // the pair still advances time
}

TEST(Logger, DiskModeCommitsPerPair) {
  std::string path = std::string(::testing::TempDir()) + "/logger_disk.log";
  auto logger = MakeLogger({.check_interval = 0}, PersistenceMode::kDisk, path);
  services::GitBackend backend;
  ASSERT_TRUE(PumpPush(*logger, backend, 1).ok());
  uint64_t counter_after_one = logger->log().counter().Read().value();
  ASSERT_TRUE(PumpPush(*logger, backend, 2).ok());
  uint64_t counter_after_two = logger->log().counter().Read().value();
  EXPECT_GT(counter_after_two, counter_after_one);  // one ROTE round per pair
  EXPECT_GT(logger->log().persisted_bytes(), 0u);
}

TEST(Logger, MemModeSkipsCounterRounds) {
  auto logger = MakeLogger({.check_interval = 0});
  services::GitBackend backend;
  ASSERT_TRUE(PumpPush(*logger, backend, 1).ok());
  EXPECT_EQ(logger->log().counter().Read().value(), 0u);
}

TEST(Logger, ConcurrentAppendsVerifyChainAndConnectionOrder) {
  // Multiple connections race the sequencer on the encrypted disk path.
  // Afterwards the persisted chain must verify, every record must be
  // present, and each connection's pairs must appear in submission order.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 40;
  std::string path = std::string(::testing::TempDir()) + "/logger_concurrent.log";
  AuditLogOptions log_options;
  log_options.mode = PersistenceMode::kDisk;
  log_options.path = path;
  log_options.encryption_key = FromHex("000102030405060708090a0b0c0d0e0f");
  log_options.counter_options.inject_latency = false;
  crypto::EcdsaPrivateKey key = crypto::EcdsaPrivateKey::FromSeed(ToBytes("concurrent"));
  AuditLogger logger(std::make_unique<ssm::GitModule>(), log_options, {.check_interval = 0},
                     key);
  ASSERT_TRUE(logger.Init().ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      services::GitBackend backend;
      std::string branch = "t" + std::to_string(t);
      for (int i = 0; i < kPerThread; ++i) {
        auto req = services::MakeGitPush("r", {{branch, branch + "-c" + std::to_string(i)}});
        auto rsp = backend.Handle(req);
        auto r = logger.OnPair(static_cast<uint64_t>(t), req.Serialize(), rsp.Serialize(),
                               false);
        if (!r.ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(logger.pairs_logged(), kThreads * kPerThread);

  // No record lost, and the signed head covers all of them.
  auto verified = AuditLog::VerifyLogFile(path, key.public_key(), logger.log().counter(),
                                          log_options.encryption_key);
  ASSERT_TRUE(verified.ok()) << verified.status().message();
  EXPECT_EQ(*verified, static_cast<size_t>(kThreads) * kPerThread);

  // Within a connection, logical time must respect submission order.
  for (int t = 0; t < kThreads; ++t) {
    std::string branch = "t" + std::to_string(t);
    auto rows =
        logger.log().Query("SELECT cid FROM updates WHERE branch = '" + branch +
                           "' ORDER BY time");
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->rows.size(), static_cast<size_t>(kPerThread)) << branch;
    for (int i = 0; i < kPerThread; ++i) {
      EXPECT_EQ(rows->rows[static_cast<size_t>(i)][0].AsText(),
                branch + "-c" + std::to_string(i));
    }
  }
}

TEST(Logger, ConcurrentAppendsWithChecksStress) {
  // Interval and forced checks firing from the drain step while appenders
  // race: every pair must succeed and the final full check stays clean.
  constexpr int kThreads = 6;
  constexpr int kPerThread = 50;
  auto logger = MakeLogger({.check_interval = 5, .forced_check_min_gap = 10});
  std::atomic<int> failures{0};
  std::atomic<int> reports{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      services::GitBackend backend;
      std::string branch = "s" + std::to_string(t);
      for (int i = 0; i < kPerThread; ++i) {
        auto req = services::MakeGitPush("r", {{branch, "c" + std::to_string(i)}});
        auto rsp = backend.Handle(req);
        auto r = logger->OnPair(static_cast<uint64_t>(t), req.Serialize(), rsp.Serialize(),
                                i % 17 == 0);
        if (!r.ok()) {
          failures.fetch_add(1);
          return;
        }
        if (r->has_value()) {
          reports.fetch_add(1);
          if (!(*r)->clean()) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(reports.load(), 0);
  EXPECT_EQ(logger->pairs_logged(), kThreads * kPerThread);
  auto final_check = logger->CheckInvariants();
  ASSERT_TRUE(final_check.ok());
  EXPECT_TRUE(final_check->clean());
}

TEST(Logger, RestartRecoversLogAndResumesTickets) {
  const std::string path = std::string(::testing::TempDir()) + "/logger_recovery.log";
  RemoveLogFiles(path);
  AuditLogOptions log_options;
  log_options.mode = PersistenceMode::kDisk;
  log_options.path = path;
  log_options.segment_bytes = 512;
  log_options.recover = true;
  log_options.counter_options.inject_latency = false;
  const LoggerOptions logger_options{.check_interval = 0};
  const auto key = crypto::EcdsaPrivateKey::FromSeed(ToBytes("lt"));

  {
    auto logger = std::make_unique<AuditLogger>(std::make_unique<ssm::GitModule>(), log_options,
                                                logger_options, key);
    ASSERT_TRUE(logger->Init().ok());
    EXPECT_FALSE(logger->recovery_info().had_state);
    services::GitBackend backend;
    for (int i = 1; i <= 5; ++i) {
      ASSERT_TRUE(PumpPush(*logger, backend, i).ok());
    }
  }

  // A new logger over the same path replays the persisted log and issues
  // its first ticket past the recovered maximum.
  auto logger = std::make_unique<AuditLogger>(std::make_unique<ssm::GitModule>(), log_options,
                                              logger_options, key);
  ASSERT_TRUE(logger->Init().ok());
  EXPECT_TRUE(logger->recovery_info().had_state);
  EXPECT_EQ(logger->recovery_info().max_ticket, 5);
  EXPECT_EQ(logger->log().entry_count(), 5u);
  services::GitBackend backend;
  ASSERT_TRUE(PumpPush(*logger, backend, 6).ok());
  auto rows = logger->log().Query("SELECT MAX(time) FROM updates");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][0].AsInt(), 6);
  auto check = logger->CheckInvariants();
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(check->clean());
  RemoveLogFiles(path);
}

}  // namespace
}  // namespace seal::core
