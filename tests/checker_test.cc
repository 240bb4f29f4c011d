// Tests for the asynchronous invariant-checking engine: forced-check
// rendezvous + coalescing, the forced-budget charge, report contents, and
// a TSan-targeted stress of appenders racing async rounds and trims.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/core/checker.h"
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
                                              crypto::EcdsaPrivateKey::FromSeed(ToBytes("ck")));
  EXPECT_TRUE(logger->Init().ok());
  return logger;
}

Result<std::optional<CheckReport>> PumpPush(AuditLogger& logger, services::GitBackend& backend,
                                            uint64_t conn, int commit, bool force = false) {
  auto req = services::MakeGitPush("r", {{"b" + std::to_string(conn), "c" + std::to_string(commit)}});
  auto rsp = backend.Handle(req);
  return logger.OnPair(conn, req.Serialize(), rsp.Serialize(), force);
}

uint64_t CoalescedCount() {
  return obs::Registry::Global().TakeSnapshot().counter("logger_forced_coalesced_total");
}

// Waits until `n` forced pairs have attached to the pending round since the
// counter read `base`. pairs_logged() is not enough: a pair counts as logged
// before it attaches, so un-pausing on that signal can start the round
// while the last pair is still on its way to it.
void WaitForCoalesced(uint64_t base, uint64_t n) {
  while (CoalescedCount() - base < n) {
    std::this_thread::yield();
  }
}

TEST(Checker, ForcedCheckRendezvousReportContents) {
  auto logger = MakeLogger({.check_interval = 0});
  services::GitBackend backend;
  ASSERT_TRUE(PumpPush(*logger, backend, 0, 1).ok());
  auto r = PumpPush(*logger, backend, 0, 2, /*force=*/true);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->has_value());
  const CheckReport& report = **r;
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.invariants_checked, logger->checker()->invariant_count());
  EXPECT_GE(report.covered_time, 2);  // the round covers the forcing pair
  ASSERT_EQ(report.coverage.size(), report.invariants_checked);
  for (const auto& c : report.coverage) {
    EXPECT_EQ(c.covered, report.covered_time) << c.invariant;
  }
  EXPECT_EQ(report.Summary(),
            "ok " + std::to_string(report.invariants_checked) + " invariants");
  // The rendezvous also published the report for header fallbacks.
  ASSERT_TRUE(logger->last_report().has_value());
  EXPECT_EQ(logger->last_report()->covered_time, report.covered_time);
}

TEST(Checker, ConcurrentForcedChecksCoalesceIntoOneRound) {
  obs::Registry::Global().Reset();
  auto logger = MakeLogger({.check_interval = 0});
  CheckerEngine* engine = logger->checker();
  ASSERT_NE(engine, nullptr);

  // Hold the checker thread back so every forced pair lands while the
  // round is still pending.
  engine->PauseForTesting(true);
  constexpr int kThreads = 4;
  const uint64_t coalesced_base = CoalescedCount();
  std::atomic<int> reports{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      services::GitBackend backend;
      auto r = PumpPush(*logger, backend, static_cast<uint64_t>(t), 1, /*force=*/true);
      if (!r.ok() || !r->has_value() || !(*r)->clean()) {
        failures.fetch_add(1);
        return;
      }
      reports.fetch_add(1);
    });
  }
  // All pairs must drain (the sequencer never blocks on the paused round)
  // and join the pending round before we let the round run.
  WaitForCoalesced(coalesced_base, kThreads - 1);
  engine->PauseForTesting(false);
  for (auto& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(reports.load(), kThreads);  // every caller got the shared report
  logger->WaitForChecks();
  EXPECT_EQ(engine->rounds_completed(), 1u);  // ...from ONE evaluation
  auto metrics = obs::Registry::Global().TakeSnapshot();
  EXPECT_EQ(metrics.counter("logger_forced_coalesced_total"),
            static_cast<uint64_t>(kThreads - 1));
  // The coalesced round covers the last drained pair.
  ASSERT_TRUE(logger->last_report().has_value());
  EXPECT_EQ(logger->last_report()->covered_time, kThreads);
}

TEST(Checker, CoalescedForcedChecksChargeTheBudgetOnce) {
  auto logger = MakeLogger({.check_interval = 0, .forced_check_min_gap = 100});
  CheckerEngine* engine = logger->checker();
  engine->PauseForTesting(true);

  constexpr int kThreads = 3;
  const uint64_t coalesced_base = CoalescedCount();
  std::atomic<int> reports{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      services::GitBackend backend;
      auto r = PumpPush(*logger, backend, static_cast<uint64_t>(t), 1, /*force=*/true);
      if (r.ok() && r->has_value()) {
        reports.fetch_add(1);
      }
    });
  }
  WaitForCoalesced(coalesced_base, kThreads - 1);
  engine->PauseForTesting(false);
  for (auto& th : threads) th.join();

  // One budget charge bought a round that satisfied every concurrent
  // demand: had attaching double-spent, the later threads would have been
  // denied instead.
  EXPECT_EQ(reports.load(), kThreads);
  logger->WaitForChecks();
  EXPECT_EQ(engine->rounds_completed(), 1u);

  // The budget IS spent though: the very next lone demand is denied.
  services::GitBackend backend;
  auto r = PumpPush(*logger, backend, 9, 2, /*force=*/true);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->has_value());
}

TEST(Checker, ManualCheckGoesThroughTheEngine) {
  auto logger = MakeLogger({.check_interval = 0});
  services::GitBackend backend;
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(PumpPush(*logger, backend, 0, i).ok());
  }
  auto report = logger->CheckInvariants();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean());
  EXPECT_EQ(report->covered_time, 5);
  EXPECT_GE(logger->checker()->rounds_completed(), 1u);
  EXPECT_EQ(report->invariants_checked, logger->checker()->invariant_count());
  // Coverage stays in invariant declaration order.
  const std::vector<Invariant> invariants = logger->module().Invariants();
  ASSERT_EQ(report->coverage.size(), invariants.size());
  for (size_t i = 0; i < invariants.size(); ++i) {
    EXPECT_EQ(report->coverage[i].invariant, invariants[i].name);
  }
}

TEST(Checker, ManualCheckDoesNotBlockAppenders) {
  // Regression: CheckInvariants used to hold the drain mutex for the whole
  // evaluation, freezing every appender. Now it enqueues a round and waits
  // off-lock, so appends flow while the check is pending.
  auto logger = MakeLogger({.check_interval = 0});
  services::GitBackend backend;
  ASSERT_TRUE(PumpPush(*logger, backend, 0, 1).ok());
  logger->checker()->PauseForTesting(true);
  std::thread checking([&] {
    auto report = logger->CheckInvariants();
    EXPECT_TRUE(report.ok());
    EXPECT_TRUE(report->clean());
  });
  // With the round stuck pending, appends must still complete.
  for (int i = 2; i <= 10; ++i) {
    ASSERT_TRUE(PumpPush(*logger, backend, 0, i).ok());
  }
  EXPECT_EQ(logger->pairs_logged(), 10);
  logger->checker()->PauseForTesting(false);
  checking.join();
}

TEST(Checker, WatermarksAdvanceAndResetOnTrim) {
  auto logger = MakeLogger({.check_interval = 0});
  services::GitBackend backend;
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(PumpPush(*logger, backend, 0, i).ok());
  }
  ASSERT_TRUE(logger->CheckInvariants().ok());
  bool any_monotone = false;
  for (size_t i = 0; i < logger->checker()->invariant_count(); ++i) {
    if (logger->watermark_for_testing(i) >= 0) {
      EXPECT_EQ(logger->watermark_for_testing(i), 4);
      any_monotone = true;
    }
  }
  EXPECT_TRUE(any_monotone);
  ASSERT_TRUE(logger->Trim().ok());  // rows leave -> every watermark resets
  for (size_t i = 0; i < logger->checker()->invariant_count(); ++i) {
    EXPECT_EQ(logger->watermark_for_testing(i), -1);
  }
}

// The TSan target: appenders race interval-triggered async rounds, forced
// rendezvous and an explicit trim on the encrypted disk path. Afterwards
// the persisted chain must verify, the observed reports must be monotone
// in covered time, and per-invariant coverage must tile: every interval
// starts where the previous clean one ended, or restarts from the full
// log after a trim (never a gap, never an un-reset overlap).
TEST(Checker, StressAppendersVsAsyncChecksAndTrim) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 40;
  std::string path = std::string(::testing::TempDir()) + "/checker_stress.log";
  AuditLogOptions log_options;
  log_options.mode = PersistenceMode::kDisk;
  log_options.path = path;
  log_options.encryption_key = FromHex("000102030405060708090a0b0c0d0e0f");
  log_options.counter_options.inject_latency = false;

  std::mutex report_mutex;
  std::vector<CheckReport> observed;
  LoggerOptions logger_options;
  logger_options.check_interval = 7;
  logger_options.forced_check_min_gap = 25;
  logger_options.on_report = [&](const CheckReport& report) {
    std::lock_guard<std::mutex> lock(report_mutex);
    observed.push_back(report);
  };

  crypto::EcdsaPrivateKey key = crypto::EcdsaPrivateKey::FromSeed(ToBytes("stress"));
  AuditLogger logger(std::make_unique<ssm::GitModule>(), log_options, logger_options, key);
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
                               i % 13 == 0);
        if (!r.ok() || (r->has_value() && !(*r)->clean())) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  // A trim races the appenders and the checker mid-run.
  std::thread trimmer([&] {
    while (logger.pairs_logged() < kThreads * kPerThread / 2) {
      std::this_thread::yield();
    }
    if (!logger.Trim().ok()) {
      failures.fetch_add(1);
    }
  });
  for (auto& th : threads) th.join();
  trimmer.join();
  ASSERT_EQ(failures.load(), 0);
  EXPECT_EQ(logger.pairs_logged(), kThreads * kPerThread);

  // Quiesce, then run one final full check so coverage reaches the end.
  logger.WaitForChecks();
  auto final_check = logger.CheckInvariants();
  ASSERT_TRUE(final_check.ok());
  EXPECT_TRUE(final_check->clean());
  EXPECT_EQ(final_check->covered_time, kThreads * kPerThread);

  // The chain head covers everything that survived trimming.
  auto verified = AuditLog::VerifyLogFile(path, key.public_key(), logger.log().counter(),
                                          log_options.encryption_key);
  ASSERT_TRUE(verified.ok()) << verified.status().message();
  EXPECT_EQ(*verified, logger.log().entry_count());

  // Reports arrive in round order with nondecreasing covered time.
  std::lock_guard<std::mutex> lock(report_mutex);
  ASSERT_GT(observed.size(), 1u);
  int64_t prev_time = 0;
  for (const CheckReport& report : observed) {
    EXPECT_TRUE(report.clean());
    EXPECT_GE(report.covered_time, prev_time);
    prev_time = report.covered_time;
  }
  // Coverage tiling per invariant: each round either resumes exactly at the
  // previous round's covered watermark or rescans from the beginning
  // (floor -1, forced by a trim). Anything else would double- or un-cover
  // a span of pairs.
  std::map<std::string, int64_t> last_covered;
  for (const CheckReport& report : observed) {
    for (const CheckReport::Coverage& c : report.coverage) {
      auto it = last_covered.find(c.invariant);
      if (it != last_covered.end() && c.floor != -1) {
        EXPECT_EQ(c.floor, it->second) << c.invariant;
      }
      EXPECT_GE(c.covered, c.floor == -1 ? int64_t{0} : c.floor) << c.invariant;
      last_covered[c.invariant] = c.covered;
    }
  }
}

}  // namespace
}  // namespace seal::core
