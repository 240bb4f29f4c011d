#include "src/services/reactor.h"

#include <algorithm>
#include <string>

#include "src/common/clock.h"
#include "src/obs/obs.h"

namespace seal::services {

// What Serve hands to a shard. shared_ptr because std::function (the task
// body) must be copyable.
struct Reactor::Pending {
  net::StreamPtr stream;
  std::function<void(net::StreamPtr)> serve;
};

// Per-connection context: the bridge between poller callbacks (any thread)
// and the connection's lthread task. Owned by its shard's registry; the
// task erases it as its LAST act before finishing, so anyone who finds a
// ConnCtx in the registry (under the shard mutex) holds a task that cannot
// have finished yet — Wake is then safe.
struct Reactor::ConnCtx {
  Shard* shard = nullptr;
  lthread::Task* task = nullptr;
  uint64_t id = 0;

  void Wake();  // defined after Shard (uses its scheduler)
};

struct Reactor::Shard {
  Reactor* reactor = nullptr;
  size_t index = 0;
  lthread::Scheduler scheduler;
  std::thread thread;

  std::mutex mutex;  // guards incoming and conns
  std::deque<std::shared_ptr<Pending>> incoming;
  std::map<uint64_t, std::unique_ptr<ConnCtx>> conns;
  uint64_t next_conn_id = 1;
};

void Reactor::ConnCtx::Wake() {
  SEAL_OBS_COUNTER("reactor_wakeups_total").Increment();
  shard->scheduler.MakeRunnableFromAnyThread(task);
}

// A stream whose blocking surface suspends the current lthread task
// (poller-armed Block) instead of the OS thread. Everything above the byte
// transport — TLS handshake, record layer, HTTP framing — runs unchanged.
class CooperativeStream : public net::Stream {
 public:
  CooperativeStream(net::StreamPtr inner, Reactor* reactor, Reactor::ConnCtx* ctx)
      : reactor_(reactor), ctx_(ctx) {
    AdoptPipes(std::move(inner));
  }

  // Unwatch before the pipes (and then the ConnCtx) can die: on return the
  // poller callbacks capturing ctx_ provably never fire again.
  ~CooperativeStream() override {
    if (has_read_watch_) {
      reactor_->poller_.Unwatch(read_watch_);
    }
    if (has_write_watch_) {
      reactor_->poller_.Unwatch(write_watch_);
    }
  }

  size_t Read(uint8_t* buf, size_t max) override {
    for (;;) {
      int64_t n = TryRead(buf, max);
      if (n >= 0) {
        return static_cast<size_t>(n);
      }
      if (reactor_->stopping()) {
        return 0;  // forced EOF: shutdown unblocks every parked connection
      }
      ArmRead();
      lthread::Scheduler::Block();
    }
  }

  void Write(BytesView data) override {
    while (!data.empty()) {
      int64_t n = TryWrite(data);
      if (n > 0) {
        data = data.subspan(static_cast<size_t>(n));
        continue;
      }
      if (reactor_->stopping()) {
        return;  // drop the rest; the peer is being torn down anyway
      }
      ArmWrite();
      lthread::Scheduler::Block();
    }
  }

 private:
  // One-shot arm (epoll-oneshot style): first use creates the watch, later
  // uses re-arm it. A pipe that is already ready fires the wake before
  // Block() runs; the scheduler's wake token makes that race benign.
  void ArmRead() {
    if (!has_read_watch_) {
      Reactor::ConnCtx* ctx = ctx_;
      read_watch_ =
          reactor_->poller_.Watch(read_pipe(), net::Poller::Interest::kRead, [ctx] { ctx->Wake(); });
      has_read_watch_ = true;
    } else {
      reactor_->poller_.Rearm(read_watch_);
    }
  }

  void ArmWrite() {
    if (!has_write_watch_) {
      Reactor::ConnCtx* ctx = ctx_;
      write_watch_ = reactor_->poller_.Watch(write_pipe(), net::Poller::Interest::kWrite,
                                             [ctx] { ctx->Wake(); });
      has_write_watch_ = true;
    } else {
      reactor_->poller_.Rearm(write_watch_);
    }
  }

  Reactor* reactor_;
  Reactor::ConnCtx* ctx_;
  uint64_t read_watch_ = 0;
  uint64_t write_watch_ = 0;
  bool has_read_watch_ = false;
  bool has_write_watch_ = false;
};

Reactor::Reactor() = default;

Reactor::~Reactor() { Stop(); }

void Reactor::Start() {
  if (running_.exchange(true)) {
    return;
  }
  stopping_.store(false, std::memory_order_release);
  const size_t shards = std::max(1u, std::thread::hardware_concurrency());
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    Shard* shard = shards_.back().get();
    shard->reactor = this;
    shard->index = i;
    shard->thread = std::thread([this, shard] { ShardLoop(shard); });
  }
}

void Reactor::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  stopping_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    {
      // Wake under the shard mutex: a ConnCtx found here cannot reach its
      // task-finish line (which needs this mutex to erase itself) while we
      // hold it, so the Task* is alive for the wake.
      std::lock_guard<std::mutex> lock(shard->mutex);
      for (auto& [id, ctx] : shard->conns) {
        ctx->Wake();
      }
    }
    shard->scheduler.Notify();
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) {
      shard->thread.join();
    }
  }
  // All tasks (and their streams/watches) are gone; the poller can stop.
  poller_.Stop();
  // Streams that raced Stop() into an incoming queue were never adopted:
  // abort them so their dialers observe EOF.
  for (auto& shard : shards_) {
    for (auto& p : shard->incoming) {
      p->stream->Abort();
    }
    shard->incoming.clear();
  }
  shards_.clear();
}

void Reactor::Serve(net::StreamPtr stream, std::function<void(net::StreamPtr)> serve) {
  if (!running() || stopping()) {
    stream->Abort();
    return;
  }
  Shard* shard =
      shards_[next_shard_.fetch_add(1, std::memory_order_relaxed) % shards_.size()].get();
  auto pending = std::make_shared<Pending>();
  pending->stream = std::move(stream);
  pending->serve = std::move(serve);
  {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->incoming.push_back(std::move(pending));
  }
  shard->scheduler.Notify();
}

net::StreamPtr Reactor::MakeCooperative(net::StreamPtr stream) {
  lthread::Task* task = lthread::Scheduler::Current();
  if (task == nullptr || task->user_data() == nullptr) {
    return stream;  // not on a reactor task: stays blocking
  }
  auto* ctx = static_cast<ConnCtx*>(task->user_data());
  return std::make_unique<CooperativeStream>(std::move(stream), this, ctx);
}

void Reactor::ShardLoop(Shard* shard) {
  obs::Gauge& tasks_gauge = obs::Registry::Global().GetGauge(
      "reactor_tasks{thread=\"" + std::to_string(shard->index) + "\"}");
  for (;;) {
    // Adopt connections handed over by Serve().
    std::deque<std::shared_ptr<Pending>> incoming;
    {
      std::lock_guard<std::mutex> lock(shard->mutex);
      incoming.swap(shard->incoming);
    }
    for (auto& pending : incoming) {
      if (stopping()) {
        pending->stream->Abort();
        continue;
      }
      uint64_t id = shard->next_conn_id++;
      auto ctx = std::make_unique<ConnCtx>();
      ctx->shard = shard;
      ctx->id = id;
      ConnCtx* c = ctx.get();
      Reactor* reactor = this;
      std::shared_ptr<Pending> p = std::move(pending);
      c->task = shard->scheduler.Spawn(
          [reactor, shard, c, p]() mutable {
            {
              auto coop = std::make_unique<CooperativeStream>(std::move(p->stream), reactor, c);
              p->serve(std::move(coop));
              p.reset();
            }
            // The stream (and its poller watches) are gone. Deregister as
            // the LAST act before finishing: after the erase nothing can
            // wake this task, and Stop's under-the-mutex walk can never
            // hold a Task* that has already finished.
            std::lock_guard<std::mutex> lock(shard->mutex);
            shard->conns.erase(c->id);  // destroys the ConnCtx
          },
          kTaskStackSize);
      c->task->set_user_data(c);
      {
        std::lock_guard<std::mutex> lock(shard->mutex);
        shard->conns.emplace(id, std::move(ctx));
      }
    }

    int64_t t0 = NowNanos();
    bool progressed = shard->scheduler.RunOnce();
    if (progressed) {
      SEAL_OBS_HISTOGRAM("reactor_loop_nanos")
          .Observe(static_cast<uint64_t>(std::max<int64_t>(0, NowNanos() - t0)));
    }
    tasks_gauge.Set(static_cast<int64_t>(shard->scheduler.live_tasks()));
    SEAL_OBS_GAUGE("reactor_ready_queue_depth")
        .Set(static_cast<int64_t>(shard->scheduler.ready_depth()));

    if (stopping() && shard->scheduler.live_tasks() == 0) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      if (shard->incoming.empty()) {
        break;  // drained: every task ran to completion
      }
      continue;
    }
    if (!progressed) {
      {
        std::lock_guard<std::mutex> lock(shard->mutex);
        if (!shard->incoming.empty()) {
          continue;
        }
      }
      // Nothing runnable and nothing new: park until a poller wakeup,
      // Serve(), or Stop() notifies.
      shard->scheduler.WaitForWork();
    }
  }
}

}  // namespace seal::services
