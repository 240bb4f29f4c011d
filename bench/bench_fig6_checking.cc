// Figure 6: normalized invariant-checking + trimming time against the
// checking interval, for all three services. Also: a log-size sweep (full
// mode only), a Git branch-count sweep of the check+trim round under the
// plain and the tuned query engine, and the append stall while rounds run
// on the checker thread.
//
// Checking rarely means each check is expensive (the log has grown);
// checking often wastes fixed per-check cost. Normalising the combined
// check+trim time by the interval length exposes an optimal interval.
// Paper optima: 25 requests (Git), 75 (ownCloud), 100 (Dropbox), with
// absolute check+trim costs of 0.3-0.4 ms at those optima (on SQLite; our
// interpreter is slower in absolute terms, so our optima shift right --
// the curve SHAPE is the reproduced result).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/logger.h"
#include "src/services/dropbox_service.h"
#include "src/services/git_service.h"
#include "src/services/owncloud_service.h"
#include "src/ssm/dropbox_ssm.h"
#include "src/ssm/git_ssm.h"
#include "src/ssm/owncloud_ssm.h"

namespace seal::bench {
namespace {

using PairSource = std::function<std::pair<std::string, std::string>()>;

// Unexpected outcomes (a failed pair, a failed or violating round where the
// traffic is clean) are printed and make the binary exit non-zero.
std::atomic<int> g_failures{0};

void Fail(const std::string& what) {
  std::printf("FAILED: %s\n", what.c_str());
  ++g_failures;
}

// Fails when some round of `logger` did not publish a report (a round that
// fails skips on_report but still counts as completed).
void CheckRoundsPublished(core::AuditLogger& logger, uint64_t reports, const std::string& what) {
  const uint64_t rounds = logger.checker()->rounds_completed();
  if (rounds != reports) {
    Fail(what + ": " + std::to_string(rounds - reports) + " of " + std::to_string(rounds) +
         " rounds failed");
  }
}

// Measures normalized check+trim cost (µs per request) at a given interval.
double MeasureNormalizedCost(const std::function<std::unique_ptr<core::ServiceModule>()>& module,
                             const PairSource& next_pair, int interval, int total_requests) {
  core::AuditLogOptions log_options;
  // Disk mode, as deployed: each trim rewrites the persisted log, re-signs
  // the chain head and runs a counter round -- the FIXED per-check cost
  // that makes checking too often expensive (the left arm of the U).
  log_options.mode = core::PersistenceMode::kDisk;
  log_options.path = TempPath("fig6_" + std::string(1, 'a' + interval % 26) + ".log");
  log_options.counter_options.inject_latency = true;
  log_options.counter_options.network_rtt_nanos = 200'000;
  // The figure measures the check+trim cost itself, taken from each round's
  // report, not its placement off the request path: quiescing after every
  // pair runs each round at the pair that triggered it.
  int64_t check_trim_nanos = 0;
  uint64_t reports = 0;
  core::LoggerOptions logger_options;
  logger_options.check_interval = static_cast<size_t>(interval);
  logger_options.on_report = [&](const core::CheckReport& report) {
    check_trim_nanos += report.check_nanos + report.trim_nanos;
    ++reports;
  };
  core::AuditLogger logger(module(), log_options, logger_options,
                           crypto::EcdsaPrivateKey::FromSeed(ToBytes("fig6")));
  if (!logger.Init().ok()) {
    Fail("fig6 logger init");
    return 0;
  }
  for (int i = 0; i < total_requests; ++i) {
    auto [request, response] = next_pair();
    if (!logger.OnPair(request, response, false).ok()) {
      Fail("fig6 pair at interval " + std::to_string(interval));
      return 0;
    }
    logger.WaitForChecks();
  }
  CheckRoundsPublished(logger, reports, "fig6 interval " + std::to_string(interval));
  return static_cast<double>(check_trim_nanos) / 1e3 / static_cast<double>(total_requests);
}

constexpr int kIntervals[] = {5, 10, 25, 50, 75, 100, 150};

// Median, min and max of a set of repeated measurements.
struct Spread {
  double median = 0;
  double min = 0;
  double max = 0;
};

Spread SpreadOf(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  Spread s;
  if (!samples.empty()) {
    s.median = samples[samples.size() / 2];
    s.min = samples.front();
    s.max = samples.back();
  }
  return s;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.1f", i > 0 ? ", " : "", values[i]);
    out += buf;
  }
  return out + "]";
}

// One service's Fig. 6 row: the normalized cost at every interval, each
// repeated `repeats` times over identical traffic. Prints the medians and,
// below them, the min-max range; returns the row as a JSON object.
std::string RunService(const char* name,
                       const std::function<std::unique_ptr<core::ServiceModule>()>& module,
                       const std::function<PairSource()>& make_source, int total_requests,
                       int repeats) {
  std::vector<double> medians, mins, maxes;
  for (int interval : kIntervals) {
    std::vector<double> samples;
    for (int r = 0; r < repeats; ++r) {
      PairSource source = make_source();
      samples.push_back(MeasureNormalizedCost(module, source, interval, total_requests));
    }
    Spread s = SpreadOf(samples);
    medians.push_back(s.median);
    mins.push_back(s.min);
    maxes.push_back(s.max);
  }
  std::printf("%-10s", name);
  for (double m : medians) {
    std::printf(" %11.1f", m);
  }
  std::printf("\n%-10s", "  min-max");
  for (size_t i = 0; i < mins.size(); ++i) {
    char range[32];
    std::snprintf(range, sizeof(range), "%.0f-%.0f", mins[i], maxes[i]);
    std::printf(" %11s", range);
  }
  std::printf("\n");
  return std::string("{\"median\": ") + JsonArray(medians) + ", \"min\": " + JsonArray(mins) +
         ", \"max\": " + JsonArray(maxes) + "}";
}

// --- Log-size sweep: what the indexes and incremental checking buy --------
//
// A fetch-heavy Git workload (advertisements dominate, so the log grows
// fast) with NO trimming, checked at fixed checkpoints as the log grows
// 10x. Three engine configurations over the identical byte stream:
//   seed        -- nested-loop joins, full scans, full re-check (the engine
//                  before this optimisation round)
//   indexed     -- time index + hash joins, still full re-check
//   incremental -- indexed + per-invariant watermarks
// Per-checkpoint check time should explode for seed, grow roughly linearly
// for indexed, and stay flat for incremental.

struct GrowthSample {
  size_t rows = 0;
  double check_ms[3] = {0, 0, 0};  // seed, indexed, incremental
};

void RunLogGrowth() {
  constexpr int kRepos = 4;
  constexpr int kBranches = 3;
  constexpr int kRounds = 12;
  constexpr int kPairsPerRound = 60;  // fetches: read traffic dominates
  constexpr int kWarmupPushes = 8;    // update churn, before measurement

  // Pre-serialise the whole workload once so every configuration replays
  // identical bytes.
  std::vector<std::pair<std::string, std::string>> pairs;
  {
    services::GitBackend backend;
    auto record = [&](const http::HttpRequest& req) {
      pairs.emplace_back(req.Serialize(), backend.Handle(req).Serialize());
    };
    for (int r = 0; r < kRepos; ++r) {  // seed every branch
      std::map<std::string, std::string> updates;
      for (int b = 0; b < kBranches; ++b) {
        updates["b" + std::to_string(b)] = "c0";
      }
      record(services::MakeGitPush("repo" + std::to_string(r), updates));
    }
    for (int i = 0; i < kWarmupPushes; ++i) {  // branch churn, unmeasured
      record(services::MakeGitPush("repo" + std::to_string(i % kRepos),
                                   {{"b" + std::to_string(i % kBranches),
                                     "c" + std::to_string(i + 1)}}));
    }
    for (int i = 0; i < kRounds * kPairsPerRound; ++i) {
      record(services::MakeGitFetch("repo" + std::to_string(i % kRepos)));
    }
  }

  const struct {
    const char* name;
    db::Tuning tuning;
    bool incremental;
  } kConfigs[3] = {
      {"seed", {.use_time_index = false, .use_hash_join = false}, false},
      {"indexed", {.use_time_index = true, .use_hash_join = true}, false},
      {"incremental", {.use_time_index = true, .use_hash_join = true}, true},
  };

  std::vector<GrowthSample> samples(kRounds);
  for (int c = 0; c < 3; ++c) {
    core::AuditLogOptions log_options;  // memory mode: isolate checking cost
    log_options.counter_options.inject_latency = false;
    core::LoggerOptions logger_options;
    logger_options.check_interval = 0;  // checkpoints drive the checks
    logger_options.incremental_checking = kConfigs[c].incremental;
    core::AuditLogger logger(std::make_unique<ssm::GitModule>(), log_options, logger_options,
                             crypto::EcdsaPrivateKey::FromSeed(ToBytes("fig6g")));
    if (!logger.Init().ok()) {
      Fail("log-size sweep logger init");
      return;
    }
    logger.log().database().set_tuning(kConfigs[c].tuning);
    auto pair = [&](size_t i) {
      if (!logger.OnPair(pairs[i].first, pairs[i].second, false).ok()) {
        Fail(std::string("log-size sweep pair (") + kConfigs[c].name + ")");
      }
      logger.WaitForChecks();
    };
    size_t next = 0;
    for (int r = 0; r < kRepos + kWarmupPushes; ++r) {  // pushes, unmeasured
      pair(next++);
    }
    // Bootstrap check on the tiny seeded log so the incremental
    // configuration enters round 1 with live watermarks; every measured
    // round is then steady-state.
    (void)logger.CheckInvariants();
    for (int round = 0; round < kRounds; ++round) {
      for (int i = 0; i < kPairsPerRound; ++i) {
        pair(next++);
      }
      auto report = logger.CheckInvariants();
      if (!report.ok() || !report->clean()) {
        Fail(std::string("log-size sweep check (") + kConfigs[c].name + ")");
        return;
      }
      samples[static_cast<size_t>(round)].check_ms[c] =
          static_cast<double>(report->check_nanos) / 1e6;
      samples[static_cast<size_t>(round)].rows =
          logger.log().database().TableSize("advertisements") +
          logger.log().database().TableSize("updates");
    }
  }

  std::printf("\n=== Log-size sweep: full check time (ms) vs log size, no trimming ===\n");
  std::printf("%8s %8s %10s %10s %12s\n", "round", "rows", "seed", "indexed", "incremental");
  for (int round = 0; round < kRounds; ++round) {
    const GrowthSample& s = samples[static_cast<size_t>(round)];
    std::printf("%8d %8zu %10.2f %10.2f %12.3f\n", round + 1, s.rows, s.check_ms[0],
                s.check_ms[1], s.check_ms[2]);
  }
  const GrowthSample& first = samples.front();
  const GrowthSample& last = samples.back();
  std::printf("\nat %zu rows: indexes alone %.1fx faster than seed; "
              "incremental round cost %.2fx its first round (flat = 1x)\n",
              last.rows, last.check_ms[0] / last.check_ms[1],
              last.check_ms[2] / first.check_ms[2]);
}

// --- Branch sweep: Git round cost against the number of branches ---------
//
// One repository with B branches, every branch pushed once, then rounds of
// one push and one checked fetch (its advertisement lists all B branches).
// The checked fetch waits for its check+trim round, so the log holds
// B updates plus one fetch's advertisements, as on a checked fetch in
// steady state. Without decorrelation the completeness view pays B
// advertisements x B updates x a B-row "latest update" walk: round time
// grows with the cube of B. Memory mode, no counter latency.

struct BranchSample {
  Spread round_ms[2];  // plain, tuned: check + trim
  Spread check_ms[2];
  Spread trim_ms[2];
};

BranchSample MeasureBranchRounds(int branches, int rounds) {
  BranchSample sample;
  const db::Tuning kTunings[2] = {{.use_time_index = false, .use_hash_join = false},
                                  db::Tuning{}};
  for (int c = 0; c < 2; ++c) {
    core::AuditLogOptions log_options;
    log_options.counter_options.inject_latency = false;
    core::LoggerOptions logger_options;
    logger_options.check_interval = 0;  // the checked fetch drives each round
    core::AuditLogger logger(std::make_unique<ssm::GitModule>(), log_options, logger_options,
                             crypto::EcdsaPrivateKey::FromSeed(ToBytes("fig6b")));
    if (!logger.Init().ok()) {
      Fail("branch sweep logger init");
      return sample;
    }
    logger.log().database().set_tuning(kTunings[c]);
    services::GitBackend backend;
    auto pair = [&](const http::HttpRequest& req, bool check) {
      auto report = logger.OnPair(req.Serialize(), backend.Handle(req).Serialize(), check);
      logger.WaitForChecks();
      return report;
    };
    const std::string failure = "unexpected round outcome at " + std::to_string(branches) +
                                " branches";
    std::map<std::string, std::string> all;
    for (int b = 0; b < branches; ++b) {
      all["branch-" + std::to_string(b)] = "c0";
    }
    if (!pair(services::MakeGitPush("repo", all), false).ok()) {
      Fail(failure);
      return sample;
    }
    constexpr int kWarmup = 3;
    std::vector<double> round_ms, check_ms, trim_ms;
    for (int r = 0; r < kWarmup + rounds; ++r) {
      auto push = pair(services::MakeGitPush("repo", {{"branch-" + std::to_string(r % branches),
                                                       "c" + std::to_string(r + 1)}}),
                       false);
      auto report = pair(services::MakeGitFetch("repo"), true);
      if (!push.ok() || !report.ok() || !report->has_value() || !(*report)->clean()) {
        Fail(failure);
        return sample;
      }
      if (r >= kWarmup) {
        check_ms.push_back(static_cast<double>((*report)->check_nanos) / 1e6);
        trim_ms.push_back(static_cast<double>((*report)->trim_nanos) / 1e6);
        round_ms.push_back(check_ms.back() + trim_ms.back());
      }
    }
    sample.round_ms[c] = SpreadOf(round_ms);
    sample.check_ms[c] = SpreadOf(check_ms);
    sample.trim_ms[c] = SpreadOf(trim_ms);
  }
  return sample;
}

std::string RunBranchSweep(int rounds) {
  std::printf("\n=== Branch sweep: Git check+trim round (ms) vs branches, "
              "one checked fetch per round, median of %d rounds ===\n",
              rounds);
  std::printf("%9s %12s %16s %12s %16s %9s\n", "branches", "plain", "(check/trim)", "tuned",
              "(check/trim)", "speedup");
  std::string json = "[";
  for (int branches : {6, 20, 50}) {
    BranchSample s = MeasureBranchRounds(branches, rounds);
    char plain_split[40], tuned_split[40];
    std::snprintf(plain_split, sizeof(plain_split), "%.2f/%.2f", s.check_ms[0].median,
                  s.trim_ms[0].median);
    std::snprintf(tuned_split, sizeof(tuned_split), "%.2f/%.2f", s.check_ms[1].median,
                  s.trim_ms[1].median);
    const double speedup =
        s.round_ms[1].median > 0 ? s.round_ms[0].median / s.round_ms[1].median : 0;
    std::printf("%9d %12.2f %16s %12.2f %16s %8.1fx\n", branches, s.round_ms[0].median,
                plain_split, s.round_ms[1].median, tuned_split, speedup);
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"branches\": %d, \"plain_round_ms\": %.3f, \"plain_round_ms_min\": %.3f, "
                  "\"plain_round_ms_max\": %.3f, \"tuned_round_ms\": %.3f, "
                  "\"tuned_round_ms_min\": %.3f, \"tuned_round_ms_max\": %.3f, "
                  "\"tuned_check_ms\": %.3f, \"tuned_trim_ms\": %.3f}",
                  json.size() > 1 ? ", " : "", branches, s.round_ms[0].median,
                  s.round_ms[0].min, s.round_ms[0].max, s.round_ms[1].median,
                  s.round_ms[1].min, s.round_ms[1].max, s.check_ms[1].median,
                  s.trim_ms[1].median);
    json += buf;
  }
  return json + "]";
}

// --- Append stall while rounds run on the checker thread ----------------
//
// The off-critical-path claim: the drain step only enqueues a trigger, so
// an OnPair that lands on a check boundary does not pay the check+trim
// round. We measure per-pair OnPair latency with 4 appender threads at
// check_interval=25. The max stays in the table: a round's trim still runs
// under the logger's drain lock, and every appender waits behind it.

struct StallResult {
  double p50_ns = 0;
  double p99_ns = 0;
  double max_ns = 0;
  double pairs_per_sec = 0;
};

StallResult MeasureAppendStall(int threads, int pairs_per_thread) {
  core::AuditLogOptions log_options;  // memory mode: isolate the check stall
  log_options.counter_options.inject_latency = false;
  std::atomic<uint64_t> reports{0};
  core::LoggerOptions logger_options;
  logger_options.check_interval = 25;
  // Each thread replays its own backend's history, so fetches do not
  // advertise the other threads' branches and rounds report violations:
  // only a failed round counts as a failure here.
  logger_options.on_report = [&reports](const core::CheckReport&) {
    reports.fetch_add(1, std::memory_order_relaxed);
  };
  core::AuditLogger logger(std::make_unique<ssm::GitModule>(), log_options, logger_options,
                           crypto::EcdsaPrivateKey::FromSeed(ToBytes("fig6s")));
  if (!logger.Init().ok()) {
    Fail("stall race logger init");
    return {};
  }

  // Pre-serialised per-thread traffic: pushes with per-thread branches plus
  // interleaved fetches so the advertisements relation gives the invariant
  // queries real work per round.
  std::vector<std::vector<std::pair<std::string, std::string>>> traffic(
      static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    services::GitBackend backend;
    std::string branch = "b" + std::to_string(t);
    for (int i = 0; i < pairs_per_thread; ++i) {
      http::HttpRequest req =
          (i % 3 == 2) ? services::MakeGitFetch("repo")
                       : services::MakeGitPush("repo", {{branch, "c" + std::to_string(i)}});
      traffic[static_cast<size_t>(t)].emplace_back(req.Serialize(),
                                                   backend.Handle(req).Serialize());
    }
  }

  std::vector<std::vector<int64_t>> latencies(static_cast<size_t>(threads));
  std::atomic<int> failed_pairs{0};
  int64_t start = NowNanos();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      auto& lat = latencies[static_cast<size_t>(t)];
      lat.reserve(static_cast<size_t>(pairs_per_thread));
      for (const auto& [request, response] : traffic[static_cast<size_t>(t)]) {
        int64_t t0 = NowNanos();
        if (!logger.OnPair(static_cast<uint64_t>(t), request, response, false).ok()) {
          failed_pairs.fetch_add(1, std::memory_order_relaxed);
        }
        lat.push_back(NowNanos() - t0);
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  int64_t elapsed = NowNanos() - start;
  logger.WaitForChecks();
  if (failed_pairs.load() > 0) {
    Fail("stall race: " + std::to_string(failed_pairs.load()) + " pairs failed");
  }
  CheckRoundsPublished(logger, reports.load(), "stall race");

  std::vector<int64_t> all;
  for (const auto& v : latencies) {
    all.insert(all.end(), v.begin(), v.end());
  }
  std::sort(all.begin(), all.end());
  StallResult result;
  if (all.empty()) {
    return result;
  }
  result.p50_ns = static_cast<double>(all[all.size() / 2]);
  result.p99_ns = static_cast<double>(all[std::min(all.size() - 1, all.size() * 99 / 100)]);
  result.max_ns = static_cast<double>(all.back());
  result.pairs_per_sec = static_cast<double>(all.size()) /
                         (static_cast<double>(elapsed) / 1e9);
  return result;
}

}  // namespace
}  // namespace seal::bench

int main(int argc, char** argv) {
  using namespace seal::bench;
  using seal::http::HttpRequest;

  bool quick = false;
  std::string out_path = "BENCH_checking.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    }
  }
  const int sweep_requests = quick ? 150 : 450;
  // The stall race deliberately lets the checker fall behind the appenders,
  // so the deferred round at WaitForChecks() evaluates the whole backlog in
  // one go. The git completeness invariant joins advertisements x updates on
  // a time inequality — O(n^2) join rows, one as-of lookup each — so the
  // race length has to stay bounded for the quiesce to finish on small
  // machines. The p99 series is collected during the race and is
  // unaffected; 4x600 pairs gives ~2400 samples.
  const int stall_pairs_per_thread = quick ? 400 : 600;
  // Each Fig. 6 point is a single disk-mode run whose cost swings with the
  // host's I/O; the median of several runs, printed with its range, is the
  // reported value.
  const int fig6_repeats = quick ? 3 : 5;
  const int branch_rounds = quick ? 9 : 25;

  std::printf("=== Figure 6: normalized check+trim time (us/request) vs interval, "
              "median of %d runs ===\n",
              fig6_repeats);
  std::printf("%-10s", "interval");
  for (int interval : kIntervals) {
    std::printf(" %11d", interval);
  }
  std::printf("\n");

  std::string fig6_git = RunService(
      "git", [] { return std::make_unique<seal::ssm::GitModule>(); },
      [] {
        auto backend = std::make_shared<seal::services::GitBackend>();
        auto workload = std::make_shared<seal::services::GitWorkload>("repo", 3, 1);
        return [backend, workload]() {
          HttpRequest req = workload->Next();
          return std::make_pair(req.Serialize(), backend->Handle(req).Serialize());
        };
      },
      sweep_requests, fig6_repeats);
  std::string fig6_owncloud = RunService(
      "owncloud", [] { return std::make_unique<seal::ssm::OwnCloudModule>(); },
      [] {
        auto service = std::make_shared<seal::services::OwnCloudService>();
        auto workload = std::make_shared<seal::services::OwnCloudWorkload>(4, 8, 1);
        return [service, workload]() {
          HttpRequest req = workload->Next();
          return std::make_pair(req.Serialize(), service->Handle(req).Serialize());
        };
      },
      sweep_requests, fig6_repeats);
  std::string fig6_dropbox = RunService(
      "dropbox", [] { return std::make_unique<seal::ssm::DropboxModule>(); },
      [] {
        // Bounded account (10 files churning) so the list relation stays
        // proportional to live state, as in the paper's benchmark.
        auto service = std::make_shared<seal::services::DropboxService>();
        auto counter = std::make_shared<int>(0);
        return [service, counter]() {
          int i = (*counter)++;
          HttpRequest req =
              (i % 4 == 3)
                  ? seal::services::MakeListRequest("acct")
                  : seal::services::MakeCommitBatch(
                        "acct", "h",
                        {seal::services::DropboxCommit{
                            "file-" + std::to_string(i % 10),
                            "bl-" + std::to_string(i), 4 << 20}});
          return std::make_pair(req.Serialize(), service->Handle(req).Serialize());
        };
      },
      sweep_requests, fig6_repeats);

  std::printf("\npaper: U-shaped curves with optima at 25 (Git), 75 (ownCloud), 100 (Dropbox)\n");

  if (!quick) {
    RunLogGrowth();
  }

  std::string branch_sweep = RunBranchSweep(branch_rounds);

  // --- off-critical-path checking: OnPair latency while rounds run ---
  constexpr int kStallThreads = 4;
  std::printf("\n=== OnPair latency under checking, %d appender threads, interval 25 ===\n",
              kStallThreads);
  std::printf("%12s %12s %12s %12s\n", "p50 ns", "p99 ns", "max ns", "pairs/s");
  const StallResult stall = MeasureAppendStall(kStallThreads, stall_pairs_per_thread);
  std::printf("%12.0f %12.0f %12.0f %12.0f\n", stall.p50_ns, stall.p99_ns, stall.max_ns,
              stall.pairs_per_sec);

  std::FILE* f = std::fopen(out_path.c_str(), "wb");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"checking\",\n"
                 "  \"check_interval\": 25,\n"
                 "  \"appender_threads\": %d,\n"
                 "  \"p50_onpair_ns\": %.1f,\n"
                 "  \"p99_onpair_ns\": %.1f,\n"
                 "  \"max_onpair_ns\": %.1f,\n"
                 "  \"pairs_per_sec\": %.1f,\n"
                 "  \"fig6_intervals\": [5, 10, 25, 50, 75, 100, 150],\n"
                 "  \"fig6_repeats\": %d,\n"
                 "  \"fig6_us_per_request\": {\"git\": %s, \"owncloud\": %s, \"dropbox\": %s},\n"
                 "  \"branch_sweep_rounds\": %d,\n"
                 "  \"branch_sweep\": %s,\n"
                 "  \"failures\": %d,\n"
                 "  \"quick\": %s\n"
                 "}\n",
                 kStallThreads, stall.p50_ns, stall.p99_ns, stall.max_ns, stall.pairs_per_sec,
                 fig6_repeats, fig6_git.c_str(), fig6_owncloud.c_str(), fig6_dropbox.c_str(),
                 branch_rounds, branch_sweep.c_str(), g_failures.load(), quick ? "true" : "false");
    std::fclose(f);
    std::printf("\nwrote %s\n", out_path.c_str());
  }

  PrintMetricsSnapshot("bench_fig6_checking (cumulative)");
  if (g_failures > 0) {
    std::printf("%d unexpected outcomes\n", g_failures.load());
    return 1;
  }
  return 0;
}
