#include "src/core/shard.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>

#include "src/common/clock.h"
#include "src/core/log_segment.h"
#include "src/obs/obs.h"

namespace seal::core {

namespace {

constexpr uint8_t kEpochMagic[8] = {'S', 'E', 'A', 'L', 'E', 'P', 'O', '1'};
constexpr size_t kSignatureSize = 64;

}  // namespace

Bytes EpochRecord::Serialize() const {
  Bytes out;
  Append(out, BytesView(kEpochMagic, sizeof(kEpochMagic)));
  AppendBe64(out, epoch);
  AppendBe64(out, static_cast<uint64_t>(wall_nanos));
  AppendBe32(out, static_cast<uint32_t>(heads.size()));
  for (const ShardHeadInfo& head : heads) {
    AppendBe32(out, head.shard);
    AppendBe32(out, static_cast<uint32_t>(head.chain_head.size()));
    Append(out, head.chain_head);
    AppendBe64(out, head.counter_value);
    AppendBe64(out, head.entry_count);
  }
  return out;
}

Result<EpochRecord> EpochRecord::Deserialize(BytesView in) {
  size_t off = 0;
  auto need = [&](size_t n) { return in.size() - off >= n; };
  if (!need(sizeof(kEpochMagic)) ||
      !std::equal(kEpochMagic, kEpochMagic + sizeof(kEpochMagic), in.data())) {
    return DataLoss("not an epoch record");
  }
  off += sizeof(kEpochMagic);
  if (!need(8 + 8 + 4)) {
    return DataLoss("truncated epoch record header");
  }
  EpochRecord rec;
  rec.epoch = LoadBe64(in.data() + off);
  off += 8;
  rec.wall_nanos = static_cast<int64_t>(LoadBe64(in.data() + off));
  off += 8;
  uint32_t count = LoadBe32(in.data() + off);
  off += 4;
  rec.heads.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (!need(4 + 4)) {
      return DataLoss("truncated epoch record head");
    }
    ShardHeadInfo head;
    head.shard = LoadBe32(in.data() + off);
    off += 4;
    uint32_t chain_len = LoadBe32(in.data() + off);
    off += 4;
    if (chain_len > 64 || !need(chain_len + 8 + 8)) {
      return DataLoss("truncated epoch record head");
    }
    head.chain_head.assign(in.begin() + static_cast<ptrdiff_t>(off),
                           in.begin() + static_cast<ptrdiff_t>(off + chain_len));
    off += chain_len;
    head.counter_value = LoadBe64(in.data() + off);
    off += 8;
    head.entry_count = LoadBe64(in.data() + off);
    off += 8;
    rec.heads.push_back(std::move(head));
  }
  if (off != in.size()) {
    return DataLoss("trailing bytes in epoch record");
  }
  return rec;
}

Result<EpochRecord> ShardSet::ReadEpochRecord(const std::string& path,
                                              const crypto::EcdsaPublicKey& anchor_key) {
  auto data = ReadFileBytes(path);
  if (!data.ok()) {
    return data.status();
  }
  if (data->size() <= kSignatureSize) {
    return DataLoss("epoch record too short");
  }
  BytesView payload(*data);
  BytesView sig_bytes = payload.subspan(data->size() - kSignatureSize, kSignatureSize);
  payload = payload.subspan(0, data->size() - kSignatureSize);
  auto sig = crypto::EcdsaSignature::Decode(sig_bytes);
  if (!sig.has_value()) {
    return DataLoss("malformed epoch record signature");
  }
  if (!anchor_key.Verify(payload, *sig)) {
    return PermissionDenied("epoch record signature invalid: tampered or forged anchor");
  }
  return EpochRecord::Deserialize(payload);
}

ShardSet::ShardSet(ShardSetOptions options,
                   std::function<std::unique_ptr<ServiceModule>()> module_factory)
    : options_(std::move(options)), module_factory_(std::move(module_factory)) {}

ShardSet::~ShardSet() { Shutdown(); }

uint32_t ShardSet::ShardFor(uint64_t route_key, size_t shard_count) {
  if (shard_count == 0) {
    return 0;
  }
  // splitmix64 finalizer: adjacent connection/session ids must spread
  // across shards, and the map must be stable for a given shard count
  // (routing affinity depends on it).
  uint64_t z = route_key + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e9b5ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return static_cast<uint32_t>(z % shard_count);
}

Status ShardSet::Init() {
  if (initialised_) {
    return Status::Ok();
  }
  if (options_.shards == 0) {
    return InvalidArgument("shard set needs at least one shard");
  }
  if (module_factory_ == nullptr) {
    return InvalidArgument("shard set needs a service module factory");
  }
  merged_module_ = module_factory_();
  runtimes_.reserve(options_.shards);
  for (size_t k = 0; k < options_.shards; ++k) {
    LibSealOptions opts = options_.libseal;
    std::string tag = "shard" + std::to_string(k);
    opts.instance_tag =
        opts.instance_tag.empty() ? tag : opts.instance_tag + ":" + tag;
    if (!opts.audit_log.path.empty()) {
      opts.audit_log.path += ".shard" + std::to_string(k);
    }
    opts.logger.shard_index = static_cast<int>(k);
    auto runtime = std::make_unique<LibSealRuntime>(std::move(opts), module_factory_());
    SEAL_RETURN_IF_ERROR(runtime->Init());
    if (runtime->logger() == nullptr) {
      return InvalidArgument("shard runtime came up without a logger");
    }
    runtimes_.push_back(std::move(runtime));
  }

  // The anchor key derives from the concatenated shard measurements: the
  // signed record pins WHICH enclaves' heads it anchors, so a record from
  // a different shard-set membership fails verification outright.
  Bytes seed = ToBytes("libseal-epoch-anchor:");
  for (auto& runtime : runtimes_) {
    const auto& m = runtime->enclave().measurement();
    Append(seed, BytesView(m.data(), m.size()));
  }
  anchor_key_ = crypto::EcdsaPrivateKey::FromSeed(seed);
  anchor_public_key_ = anchor_key_.public_key();

  epoch_path_ = options_.epoch_path;
  if (epoch_path_.empty() && !options_.libseal.audit_log.path.empty() &&
      options_.libseal.audit_log.mode == PersistenceMode::kDisk) {
    epoch_path_ = options_.libseal.audit_log.path + ".epoch";
  }
  epoch_counter_ = std::make_unique<rote::RoteCounter>(options_.epoch_counter);

  if (options_.recover) {
    SEAL_RETURN_IF_ERROR(VerifyRecoveredAgainstRecord());
  }
  initialised_ = true;
  // Anchor the initial (or recovered) state: like AuditLog::Recover's
  // head re-commit, recovery ends by re-anchoring under the fresh epoch
  // counter rather than comparing against the old cluster's round.
  auto anchored = AnchorEpoch();
  if (!anchored.ok()) {
    initialised_ = false;
    return anchored.status();
  }
  return Status::Ok();
}

Status ShardSet::VerifyRecoveredAgainstRecord() {
  if (epoch_path_.empty() || !FileExists(epoch_path_)) {
    return Status::Ok();  // nothing was ever anchored
  }
  auto rec = ReadEpochRecord(epoch_path_, anchor_public_key_);
  if (!rec.ok()) {
    return rec.status();
  }
  if (rec->heads.size() != runtimes_.size()) {
    return PermissionDenied("epoch record anchors " + std::to_string(rec->heads.size()) +
                            " shards but the set has " + std::to_string(runtimes_.size()));
  }
  for (const ShardHeadInfo& head : rec->heads) {
    if (head.shard >= runtimes_.size()) {
      return PermissionDenied("epoch record names unknown shard " +
                              std::to_string(head.shard));
    }
    AuditLog& log = runtimes_[head.shard]->logger()->log();
    const std::string label = "shard " + std::to_string(head.shard);
    if (log.entry_count() < head.entry_count) {
      // The epoch record only exists once every head in it became durable
      // (phase 1 strictly precedes phase 2), so a shard BEHIND its
      // anchored head can only mean that shard's log was individually
      // rolled back or truncated.
      return PermissionDenied(
          label + " rolled back past anchored epoch " + std::to_string(rec->epoch) + ": " +
          std::to_string(log.entry_count()) + " entries recovered, " +
          std::to_string(head.entry_count) + " anchored");
    }
    if (log.entry_count() == head.entry_count &&
        !ConstantTimeEqual(log.chain_head(), head.chain_head)) {
      return PermissionDenied(label + " chain head does not match anchored epoch " +
                              std::to_string(rec->epoch) + ": log entries modified");
    }
    // Ahead of the anchor = the crash hit between head commits and the
    // epoch-record write; the recovered state is consistent and the
    // re-anchor below advances the record to it.
  }
  last_anchored_epoch_ = rec->epoch;
  return Status::Ok();
}

Status ShardSet::CommitAllHeads(std::vector<ShardHeadInfo>* heads,
                                std::vector<std::vector<LogEntry>>* entries) {
  const size_t n = runtimes_.size();
  heads->assign(n, ShardHeadInfo{});
  if (entries != nullptr) {
    entries->assign(n, {});
  }
  std::vector<Status> statuses(n);
  auto commit = [&](size_t k) {
    std::vector<LogEntry>* out = entries != nullptr ? &(*entries)[k] : nullptr;
    auto committed = runtimes_[k]->logger()->CommitAndSnapshotHead(out);
    if (!committed.ok()) {
      statuses[k] = committed.status();
      return;
    }
    ShardHeadInfo& head = (*heads)[k];
    head.shard = static_cast<uint32_t>(k);
    head.chain_head = committed->chain_head;
    head.counter_value = committed->counter_value;
    head.entry_count = committed->entry_count;
  };
  // One thread per shard; this thread commits shard 0.
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t k = 1; k < n; ++k) {
    threads.emplace_back(commit, k);
  }
  if (n > 0) {
    commit(0);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (Status& s : statuses) {
    SEAL_RETURN_IF_ERROR(s);
  }
  return Status::Ok();
}

Result<EpochRecord> ShardSet::CommitEpochRecord(std::vector<ShardHeadInfo> heads) {
  auto round = epoch_counter_->Increment();
  if (!round.ok()) {
    return round.status();
  }
  EpochRecord rec;
  rec.epoch = *round;
  rec.wall_nanos = NowNanos();
  rec.heads = std::move(heads);
  if (!epoch_path_.empty()) {
    Bytes file = rec.Serialize();
    crypto::EcdsaSignature sig = anchor_key_.Sign(file);
    Append(file, sig.Encode());
    SEAL_RETURN_IF_ERROR(AtomicWriteFile(epoch_path_, file, options_.libseal.audit_log.fsync));
  }
  last_anchored_epoch_ = rec.epoch;
  SEAL_OBS_COUNTER("epoch_anchors_total").Increment();
  return rec;
}

Result<EpochRecord> ShardSet::AnchorEpoch() {
  std::vector<ShardHeadInfo> heads;
  SEAL_RETURN_IF_ERROR(CommitAllHeads(&heads, nullptr));
  if (crash_after_head_commit_for_testing) {
    return Unavailable("crash injected between per-shard head commit and epoch record");
  }
  return CommitEpochRecord(std::move(heads));
}

Result<std::optional<CheckReport>> ShardSet::OnPair(uint64_t route_key,
                                                    std::string_view request,
                                                    std::string_view response,
                                                    bool force_check) {
  AuditLogger* logger = runtimes_[ShardFor(route_key)]->logger();
  return logger->OnPair(route_key, request, response, force_check);
}

Result<CrossShardReport> ShardSet::CheckCrossShard() {
  const int64_t t0 = NowNanos();
  // Scatter: every shard's head commit and entry snapshot happen in ONE
  // critical section per shard (CommitAndSnapshotHead), so the cut is a
  // vector of signed per-shard prefixes — and anchoring it gives the cut
  // a durable epoch identity.
  std::vector<ShardHeadInfo> heads;
  std::vector<std::vector<LogEntry>> cut;
  SEAL_RETURN_IF_ERROR(CommitAllHeads(&heads, &cut));
  if (crash_after_head_commit_for_testing) {
    return Unavailable("crash injected between per-shard head commit and epoch record");
  }
  auto anchored = CommitEpochRecord(std::move(heads));
  if (!anchored.ok()) {
    return anchored.status();
  }
  CrossShardReport out;
  out.epoch = anchored->epoch;
  out.shards = runtimes_.size();
  out.scatter_nanos = NowNanos() - t0;

  // Gather: the log_merge interleave (wall-clock order, ties by shard then
  // logical time, re-assigned global timestamps) over the cut.
  const int64_t t1 = NowNanos();
  size_t total = 0;
  for (const auto& shard_entries : cut) {
    total += shard_entries.size();
  }
  std::vector<TaggedEntry> all;
  all.reserve(total);
  for (size_t k = 0; k < cut.size(); ++k) {
    for (LogEntry& entry : cut[k]) {
      all.push_back(TaggedEntry{k, std::move(entry)});
    }
  }
  cut.clear();
  auto merged = MergeTaggedEntries(std::move(all), *merged_module_, runtimes_.size());
  if (!merged.ok()) {
    return merged.status();
  }
  out.merged_entries = merged->total_entries;
  out.merge_nanos = NowNanos() - t1;

  // Evaluate the SSM's invariants against a pinned snapshot of the merged
  // database, in parallel (Database::ExecuteSnapshot is a const read).
  // Per-shard partial evaluation would be unsound for cross-shard
  // invariants — the merged view is the truth.
  const int64_t t2 = NowNanos();
  const std::vector<Invariant> invariants = merged_module_->Invariants();
  const db::Snapshot snap = merged->database.CaptureSnapshot();
  std::vector<std::optional<Result<db::QueryResult>>> results(invariants.size());
  std::atomic<size_t> next{0};
  auto eval = [&] {
    for (size_t i = next.fetch_add(1); i < invariants.size(); i = next.fetch_add(1)) {
      results[i] = merged->database.ExecuteSnapshot(invariants[i].query, snap);
    }
  };
  const size_t par = std::max<size_t>(1, std::min(runtimes_.size(), invariants.size()));
  std::vector<std::thread> threads;
  threads.reserve(par - 1);
  for (size_t i = 1; i < par; ++i) {
    threads.emplace_back(eval);
  }
  eval();
  for (std::thread& t : threads) {
    t.join();
  }
  out.report.invariants_checked = invariants.size();
  for (size_t i = 0; i < invariants.size(); ++i) {
    if (!results[i]->ok()) {
      return results[i]->status();
    }
    if (!(*results[i])->empty()) {
      out.report.violations.push_back(CheckReport::Violation{
          invariants[i].name, std::move(**results[i])});
    }
  }
  out.eval_nanos = NowNanos() - t2;
  out.report.check_nanos = out.eval_nanos;
  SEAL_OBS_HISTOGRAM("crossshard_check_nanos")
      .Observe(static_cast<uint64_t>(NowNanos() - t0));
  return out;
}

void ShardSet::Shutdown() {
  for (auto& runtime : runtimes_) {
    runtime->Shutdown();
  }
}

}  // namespace seal::core
