#include "src/core/checker.h"

#include <optional>

#include "src/common/clock.h"
#include "src/obs/obs.h"
#include "src/sgx/enclave.h"

namespace seal::core {

namespace {

void CountRound(CheckRound::Trigger trigger) {
  switch (trigger) {
    case CheckRound::Trigger::kInterval:
      SEAL_OBS_COUNTER("logger_check_rounds_total{trigger=\"interval\"}").Increment();
      break;
    case CheckRound::Trigger::kForced:
      SEAL_OBS_COUNTER("logger_check_rounds_total{trigger=\"forced\"}").Increment();
      break;
    case CheckRound::Trigger::kManual:
      SEAL_OBS_COUNTER("logger_check_rounds_total{trigger=\"manual\"}").Increment();
      break;
  }
}

}  // namespace

std::string CheckReport::Summary() const {
  if (violations.empty()) {
    return "ok " + std::to_string(invariants_checked) + " invariants";
  }
  std::string s = "VIOLATION";
  for (const Violation& v : violations) {
    s += " " + v.invariant + "(" + std::to_string(v.rows.rows.size()) + ")";
  }
  return s;
}

Status CheckRound::Wait() {
  std::unique_lock<std::mutex> lk(m);
  cv.wait(lk, [&] { return done; });
  return status;
}

CheckerEngine::CheckerEngine(AuditLog* log, std::vector<Invariant> invariants,
                             Options options, TrimFn trim_fn)
    : log_(log),
      invariants_(std::move(invariants)),
      options_(std::move(options)),
      trim_fn_(std::move(trim_fn)) {
  watermarks_.assign(invariants_.size(), -1);
}

CheckerEngine::~CheckerEngine() { Stop(); }

void CheckerEngine::Start() {
  std::lock_guard<std::mutex> lk(mutex_);
  if (started_ || stop_) {
    return;
  }
  started_ = true;
  worker_ = std::thread([this] { ThreadMain(); });
}

void CheckerEngine::Stop() {
  std::shared_ptr<CheckRound> orphaned;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    if (stop_) {
      return;
    }
    stop_ = true;
    orphaned = std::move(pending_);
    UpdateQueueDepthLocked();
    work_cv_.notify_all();
    idle_cv_.notify_all();
  }
  if (worker_.joinable()) {
    worker_.join();
  }
  if (orphaned != nullptr) {
    CompleteRound(orphaned, Unavailable("checker engine stopped"));
  }
}

void CheckerEngine::UpdateQueueDepthLocked() {
  SEAL_OBS_GAUGE("logger_check_queue_depth")
      .Set((pending_ != nullptr ? 1 : 0) + (running_ != nullptr ? 1 : 0));
}

std::shared_ptr<CheckRound> CheckerEngine::Enqueue(Trigger trigger, bool want_trim,
                                                   int64_t horizon) {
  std::lock_guard<std::mutex> lk(mutex_);
  if (stop_) {
    auto dead = std::make_shared<CheckRound>();
    dead->trigger = trigger;
    dead->status = Unavailable("checker engine stopped");
    dead->done = true;
    return dead;
  }
  if (pending_ != nullptr) {
    // Merge: one round will cover both triggers. The refreshed snapshot
    // covers every pair drained so far (the caller holds the writer lock,
    // so this is a pair boundary).
    pending_->snapshot = log_->database().CaptureSnapshot();
    if (horizon > pending_->horizon) {
      pending_->horizon = horizon;
    }
    pending_->want_trim = pending_->want_trim || want_trim;
    SEAL_OBS_COUNTER("logger_check_rounds_coalesced_total").Increment();
    return pending_;
  }
  auto round = std::make_shared<CheckRound>();
  round->trigger = trigger;
  round->want_trim = want_trim;
  round->horizon = horizon;
  round->snapshot = log_->database().CaptureSnapshot();
  pending_ = round;
  UpdateQueueDepthLocked();
  work_cv_.notify_one();
  return round;
}

std::shared_ptr<CheckRound> CheckerEngine::TryAttach(int64_t need_horizon) {
  std::lock_guard<std::mutex> lk(mutex_);
  if (pending_ == nullptr || stop_) {
    // A running round never qualifies: its snapshot was captured before
    // the caller's pair was drained, so it cannot cover need_horizon.
    return nullptr;
  }
  pending_->snapshot = log_->database().CaptureSnapshot();
  if (need_horizon > pending_->horizon) {
    pending_->horizon = need_horizon;
  }
  return pending_;
}

void CheckerEngine::OnTrimmed() {
  std::lock_guard<std::mutex> lk(wm_mutex_);
  for (int64_t& w : watermarks_) {
    if (w >= 0) {
      SEAL_OBS_COUNTER("logger_watermark_resets_total").Increment();
    }
    w = -1;
  }
}

void CheckerEngine::WaitIdle() {
  std::unique_lock<std::mutex> lk(mutex_);
  idle_cv_.wait(lk, [&] { return stop_ || (pending_ == nullptr && running_ == nullptr); });
}

void CheckerEngine::PauseForTesting(bool paused) {
  std::lock_guard<std::mutex> lk(mutex_);
  paused_ = paused;
  work_cv_.notify_all();
}

int64_t CheckerEngine::watermark_for_testing(size_t invariant_index) const {
  std::lock_guard<std::mutex> lk(wm_mutex_);
  return invariant_index < watermarks_.size() ? watermarks_[invariant_index] : -1;
}

void CheckerEngine::ThreadMain() {
  for (;;) {
    std::shared_ptr<CheckRound> round;
    {
      std::unique_lock<std::mutex> lk(mutex_);
      work_cv_.wait(lk, [&] { return stop_ || (pending_ != nullptr && !paused_); });
      if (stop_) {
        return;
      }
      round = std::move(pending_);
      running_ = round;
      UpdateQueueDepthLocked();
    }
    RunRound(*round);
    CountRound(round->trigger);
    rounds_completed_.fetch_add(1, std::memory_order_release);
    if (round->status.ok() && options_.on_report) {
      options_.on_report(round->report);
    }
    CompleteRound(round, round->status);
    {
      std::lock_guard<std::mutex> lk(mutex_);
      running_ = nullptr;
      UpdateQueueDepthLocked();
      idle_cv_.notify_all();
    }
  }
}

void CheckerEngine::RunRound(CheckRound& round) {
  sgx::ScopedExecutionCharge charge(options_.enclave);
  Status s = EvaluateRound(round);
  if (s.ok() && round.want_trim && trim_fn_) {
    s = trim_fn_(&round.report);
  }
  round.status = s;
}

Status CheckerEngine::EvaluateRound(CheckRound& round) {
  const int64_t check_start = NowNanos();
  const size_t n = invariants_.size();
  std::vector<int64_t> floors(n, -1);  // per invariant; -1 = full scan
  {
    std::lock_guard<std::mutex> lk(wm_mutex_);
    for (size_t i = 0; i < n; ++i) {
      if (options_.incremental_checking && invariants_[i].monotone && watermarks_[i] >= 0) {
        floors[i] = watermarks_[i];
      }
    }
  }

  CheckReport& report = round.report;
  report.covered_time = round.horizon;
  std::vector<char> advance(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const Invariant& invariant = invariants_[i];
    std::optional<int64_t> floor;
    if (floors[i] >= 0) {
      floor = floors[i];
    }
    Result<db::QueryResult> result =
        plan_cache_.Execute(log_->database(), invariant.query, floor, &round.snapshot);
    if (!result.ok()) {
      return result.status();
    }
    ++report.invariants_checked;
    SEAL_OBS_COUNTER("logger_invariant_evaluations_total").Increment();
    if (floors[i] >= 0) {
      SEAL_OBS_COUNTER("logger_incremental_evaluations_total").Increment();
    }
    CheckReport::Coverage cov;
    cov.invariant = invariant.name;
    cov.floor = floors[i];
    if (result->rows.empty()) {
      cov.covered = round.horizon;
      if (invariant.monotone) {
        advance[i] = 1;
        SEAL_OBS_COUNTER("logger_watermark_advances_total").Increment();
      }
    } else {
      // A violating monotone invariant keeps its watermark where it is:
      // the offending rows must stay visible to subsequent checks.
      cov.covered = floors[i];
      if (invariant.monotone) {
        SEAL_OBS_COUNTER("logger_watermark_freezes_total").Increment();
      }
      SEAL_OBS_COUNTER("logger_violations_found_total").Add(result->rows.size());
      report.violations.push_back(
          CheckReport::Violation{invariant.name, std::move(*result)});
    }
    report.coverage.push_back(std::move(cov));
  }
  {
    std::lock_guard<std::mutex> lk(wm_mutex_);
    // A trim interleaved with this round invalidates its coverage: the
    // reset (OnTrimmed, same lock) wins and the watermarks stay at -1.
    if (log_->database().trim_epoch() == round.snapshot.trim_epoch) {
      for (size_t i = 0; i < n; ++i) {
        if (advance[i]) {
          watermarks_[i] = round.horizon;
        }
      }
    }
  }
  report.check_nanos = NowNanos() - check_start;
  SEAL_OBS_HISTOGRAM("logger_check_nanos").Observe(static_cast<uint64_t>(report.check_nanos));
  return Status::Ok();
}

void CheckerEngine::CompleteRound(const std::shared_ptr<CheckRound>& round, Status status) {
  std::lock_guard<std::mutex> lk(round->m);
  round->status = std::move(status);
  round->done = true;
  round->cv.notify_all();
}

}  // namespace seal::core
