#include "src/core/logger.h"

#include <chrono>

#include "src/common/clock.h"
#include "src/obs/obs.h"

namespace seal::core {

namespace {

// Batch cap: under sustained load the sequencer hands off to a successor
// instead of growing one batch (and its waiters' latency) without bound.
constexpr size_t kMaxBatchPairs = 256;

}  // namespace

AuditLogger::AuditLogger(std::unique_ptr<ServiceModule> module, AuditLogOptions log_options,
                         LoggerOptions logger_options, crypto::EcdsaPrivateKey signing_key)
    : module_(std::move(module)),
      log_(std::move(log_options), std::move(signing_key)),
      options_(logger_options) {
  if (options_.shard_index >= 0) {
    // Resolved once: the SEAL_OBS macros cache through function-local
    // statics, which cannot carry a per-shard label.
    shard_appends_ = &obs::Registry::Global().GetCounter(
        "shard_appends_total{shard=\"" + std::to_string(options_.shard_index) + "\"}");
  }
}

AuditLogger::~AuditLogger() {
  if (engine_ != nullptr) {
    engine_->Stop();
  }
}

Status AuditLogger::Init() {
  SEAL_RETURN_IF_ERROR(log_.ExecuteSchema(module_->Schema()));
  SEAL_RETURN_IF_ERROR(log_.ExecuteSchema(module_->Views()));
  std::lock_guard<std::mutex> lock(drain_mutex_);
  if (log_.options().recover) {
    SEAL_RETURN_IF_ERROR(log_.Recover(&recovery_info_));
    // Tickets resume past everything recovered: the sequencer must never
    // hand out a logical time the restored log already contains.
    next_time_.store(recovery_info_.max_ticket + 1, std::memory_order_relaxed);
    next_drain_time_ = recovery_info_.max_ticket + 1;
  }
  EnsureEngineLocked();
  return Status::Ok();
}

void AuditLogger::EnsureEngineLocked() {
  if (engine_ != nullptr) {
    return;
  }
  CheckerEngine::Options opts;
  opts.incremental_checking = options_.incremental_checking;
  opts.enclave = options_.enclave;
  opts.on_report = [this](const CheckReport& report) { PublishReport(report); };
  engine_ = std::make_unique<CheckerEngine>(
      &log_, module_->Invariants(), std::move(opts),
      [this](CheckReport* report) {
        std::lock_guard<std::mutex> lock(drain_mutex_);
        return TrimLocked(report);
      });
  engine_->Start();
}

void AuditLogger::PublishReport(const CheckReport& report) {
  {
    std::lock_guard<std::mutex> lock(report_mutex_);
    last_report_ = report;
  }
  if (options_.on_report) {
    options_.on_report(report);
  }
}

Result<std::optional<CheckReport>> AuditLogger::OnPair(uint64_t conn_id, std::string_view request,
                                                       std::string_view response,
                                                       bool force_check) {
  const int64_t t0 = NowNanos();
  PendingPair op;
  op.time = next_time_.fetch_add(1, std::memory_order_relaxed);
  op.force_check = force_check;
  // Parse outside any lock: SSMs are stateless, so only the ticket above
  // needs to be ordered.
  module_->Log(request, response, op.time, &op.tuples);

  Shard& shard = shards_[conn_id % kAppendShards];
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (!shard.staged.empty()) {
      SEAL_OBS_COUNTER("logger_shard_contention_total").Increment();
    }
    shard.staged.push_back(&op);
  }

  // Group commit: either become the sequencer and drain (which, with no
  // contention, processes exactly our own pair), or wait for the running
  // sequencer to drain us. The timeout covers the window where the
  // sequencer finished collecting just before we staged: someone must
  // re-attempt the drain, and 200µs bounds how long a gap in the ticket
  // sequence (a thread between ticket and stage) can hold everyone up.
  for (;;) {
    if (drain_mutex_.try_lock()) {
      DrainStagedLocked();
      drain_mutex_.unlock();
    }
    std::unique_lock<std::mutex> lk(op.m);
    if (op.cv.wait_for(lk, std::chrono::microseconds(200), [&] { return op.done; })) {
      break;
    }
  }

  SEAL_OBS_HISTOGRAM("logger_append_nanos").Observe(static_cast<uint64_t>(NowNanos() - t0));
  if (!op.status.ok()) {
    return op.status;
  }
  if (op.round != nullptr) {
    // Forced-check rendezvous: block until the round covering this pair
    // completes. No logger lock is held here, so appends keep flowing.
    SEAL_RETURN_IF_ERROR(op.round->Wait());
    return std::optional<CheckReport>(op.round->report);
  }
  return std::optional<CheckReport>();
}

void AuditLogger::DrainStagedLocked() {
  std::vector<PendingPair*> drained;
  for (;;) {
    bool collected = false;
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      if (shard.staged.empty()) {
        continue;
      }
      collected = true;
      for (PendingPair* op : shard.staged) {
        reorder_.emplace(op->time, op);
      }
      shard.staged.clear();
    }
    bool processed = false;
    for (auto it = reorder_.find(next_drain_time_);
         it != reorder_.end() && drained.size() < kMaxBatchPairs;
         it = reorder_.find(next_drain_time_)) {
      PendingPair* op = it->second;
      reorder_.erase(it);
      ++next_drain_time_;
      ProcessPairLocked(op);
      drained.push_back(op);
      processed = true;
    }
    // Keep sweeping while pairs arrive: a stage racing the collection above
    // would otherwise wait a full timeout round. Stop on a quiet sweep, a
    // ticket gap, or a full batch.
    if ((!collected && !processed) || drained.size() >= kMaxBatchPairs) {
      break;
    }
  }
  if (drained.empty()) {
    return;
  }
  // One head commit covers the whole batch (any check along the way
  // already committed its prefix).
  (void)CommitIfDirtyLocked();
  SEAL_OBS_COUNTER("logger_batches_total").Increment();
  SEAL_OBS_HISTOGRAM("logger_batch_pairs").Observe(drained.size());
  for (PendingPair* op : drained) {
    // Waiters re-check `done` under op->m and may destroy the pair the
    // moment we release it, so the notify must happen under the lock.
    std::lock_guard<std::mutex> lk(op->m);
    op->done = true;
    op->cv.notify_all();
  }
}

Status AuditLogger::CommitIfDirtyLocked() {
  if (!dirty_since_commit_) {
    return Status::Ok();
  }
  Status status = log_.CommitHead();
  if (!status.ok()) {
    for (PendingPair* op : uncommitted_) {
      if (op->status.ok()) {
        op->status = status;
      }
    }
  }
  dirty_since_commit_ = false;
  uncommitted_.clear();
  return status;
}

void AuditLogger::ProcessPairLocked(PendingPair* op) {
  for (LogTuple& tuple : op->tuples) {
    db::Row row;
    row.push_back(db::Value(op->time));
    for (db::Value& v : tuple.values) {
      row.push_back(std::move(v));
    }
    Status s = log_.Append(tuple.table, std::move(row));
    if (!s.ok()) {
      op->status = s;
      return;
    }
  }
  pairs_logged_.fetch_add(1, std::memory_order_relaxed);
  SEAL_OBS_COUNTER("logger_pairs_total").Increment();
  SEAL_OBS_COUNTER("logger_tuples_total").Add(op->tuples.size());
  if (shard_appends_ != nullptr) {
    shard_appends_->Add(op->tuples.size());
  }
  if (!op->tuples.empty()) {
    // Only pairs that actually appended tuples advance the check interval:
    // unparseable or uninteresting traffic adds nothing worth re-checking.
    ++pairs_since_check_;
    dirty_since_commit_ = true;
    uncommitted_.push_back(op);
  }

  const bool interval_check =
      options_.check_interval > 0 &&
      pairs_since_check_ >= static_cast<int64_t>(options_.check_interval);
  if (!interval_check && !op->force_check) {
    return;
  }
  TriggerChecksLocked(op, interval_check);
}

void AuditLogger::TriggerChecksLocked(PendingPair* op, bool interval_check) {
  EnsureEngineLocked();
  const int64_t stall_start = NowNanos();

  bool forced = false;
  if (op->force_check && !interval_check) {
    // A forced check can ride a pending round for free: the round has not
    // started, so refreshing its snapshot makes it cover this pair too —
    // one evaluation, one budget charge (for whoever created the round).
    std::shared_ptr<CheckRound> attach = engine_->TryAttach(op->time);
    if (attach != nullptr) {
      SEAL_OBS_COUNTER("logger_forced_coalesced_total").Increment();
      op->round = std::move(attach);
      SEAL_OBS_HISTOGRAM("logger_check_stall_nanos")
          .Observe(static_cast<uint64_t>(NowNanos() - stall_start));
      return;
    }
    // Rate-limit client-triggered checks (§6.3). A demand landing on an
    // interval boundary is satisfied by the interval check for free and
    // leaves the forced budget untouched.
    forced = options_.forced_check_min_gap == 0 || last_forced_check_pair_ < 0 ||
             pairs_logged_.load(std::memory_order_relaxed) - last_forced_check_pair_ >=
                 static_cast<int64_t>(options_.forced_check_min_gap);
    if (!forced) {
      return;  // over budget, and nothing in flight to attach to
    }
  }
  if (forced) {
    last_forced_check_pair_ = pairs_logged_.load(std::memory_order_relaxed);
    SEAL_OBS_COUNTER("logger_checks_total{trigger=\"forced\"}").Increment();
  } else {
    SEAL_OBS_COUNTER("logger_checks_total{trigger=\"interval\"}").Increment();
  }
  pairs_since_check_ = 0;

  // Bind the head to everything appended so far before producing evidence.
  Status commit_status = CommitIfDirtyLocked();
  if (!commit_status.ok()) {
    op->status = commit_status;
    return;
  }
  // Every tuple with time < next_drain_time_ has been drained into the
  // database; later tickets may still be in flight, so this round covers
  // (and may advance watermarks up to) exactly this horizon.
  const int64_t horizon = next_drain_time_ - 1;
  const CheckerEngine::Trigger trigger =
      forced ? CheckerEngine::Trigger::kForced : CheckerEngine::Trigger::kInterval;

  std::shared_ptr<CheckRound> round = engine_->Enqueue(trigger, /*want_trim=*/true, horizon);
  if (op->force_check) {
    op->round = std::move(round);  // rendezvous in OnPair, off this lock
  }
  SEAL_OBS_HISTOGRAM("logger_check_stall_nanos")
      .Observe(static_cast<uint64_t>(NowNanos() - stall_start));
}

Status AuditLogger::TrimLocked(CheckReport* report) {
  const int64_t trim_start = NowNanos();
  size_t deleted = 0;
  size_t archived = 0;
  SEAL_RETURN_IF_ERROR(log_.Trim(module_->TrimmingQueries(), &deleted, &archived));
  if (deleted > 0 && engine_ != nullptr) {
    // Rows left the log, so the deltas past the watermarks no longer
    // describe it: the next check scans whatever survived in full.
    engine_->OnTrimmed();
  }
  const int64_t trim_nanos = NowNanos() - trim_start;
  if (report != nullptr) {
    report->trim_nanos = trim_nanos;
    report->trimmed_rows = deleted;
    report->archived_rows = archived;
  }
  SEAL_OBS_COUNTER("logger_trims_total").Increment();
  SEAL_OBS_COUNTER("logger_trimmed_rows_total").Add(deleted);
  SEAL_OBS_HISTOGRAM("logger_trim_nanos").Observe(static_cast<uint64_t>(trim_nanos));
  return Status::Ok();
}

Result<AuditLogger::CommittedHead> AuditLogger::CommitAndSnapshotHead(
    std::vector<LogEntry>* entries_out) {
  std::lock_guard<std::mutex> lock(drain_mutex_);
  DrainStagedLocked();
  SEAL_RETURN_IF_ERROR(CommitIfDirtyLocked());
  CommittedHead head;
  head.chain_head = log_.chain_head();
  head.counter_value = log_.last_counter_value();
  head.entry_count = log_.entry_count();
  head.max_ticket = next_drain_time_ - 1;
  if (entries_out != nullptr) {
    // Same critical section as the commit: the copy IS the state the head
    // signs, which is what makes the cross-shard cut consistent.
    *entries_out = log_.entries();
  }
  return head;
}

Result<CheckReport> AuditLogger::CheckInvariants() {
  std::shared_ptr<CheckRound> round;
  {
    std::lock_guard<std::mutex> lock(drain_mutex_);
    DrainStagedLocked();  // fold any in-flight pairs in before the scan
    EnsureEngineLocked();
    SEAL_OBS_COUNTER("logger_checks_total{trigger=\"manual\"}").Increment();
    const int64_t horizon = next_drain_time_ - 1;
    round = engine_->Enqueue(CheckerEngine::Trigger::kManual, /*want_trim=*/false, horizon);
  }
  // Wait off the drain lock: appenders keep flowing while the round runs.
  SEAL_RETURN_IF_ERROR(round->Wait());
  return round->report;
}

Status AuditLogger::Trim() {
  std::lock_guard<std::mutex> lock(drain_mutex_);
  DrainStagedLocked();
  return TrimLocked(nullptr);
}

void AuditLogger::WaitForChecks() {
  if (engine_ != nullptr) {
    engine_->WaitIdle();
  }
}

int64_t AuditLogger::watermark_for_testing(size_t invariant_index) const {
  std::lock_guard<std::mutex> lock(drain_mutex_);
  return engine_ != nullptr ? engine_->watermark_for_testing(invariant_index) : -1;
}

}  // namespace seal::core
