// Reactor: the connection core of HttpServer and ProxyServer.
//
// The paper's §4.3 argument — OS threads are expensive under SGX, so run
// many user-level lthreads per enclave thread — applies on the untrusted
// side too. The reactor multiplexes ALL accepted connections onto one OS
// thread per core ("shards"), each owning one lthread::Scheduler with one
// cooperative task per connection. A shared net::Poller (the epoll
// stand-in) watches every connection's pipes; a task that would block
// parks with lthread::Scheduler::Block() and is resumed via the
// scheduler's cross-thread wakeup path when the poller reports readiness.
//
// Layering trick: instead of threading would-block returns up through the
// TLS engine, accepted streams are wrapped in a CooperativeStream whose
// blocking Read/Write suspend the CURRENT TASK (TryRead/TryWrite + arm
// poller + Block) rather than the OS thread. The TLS handshake, record
// layer and HTTP framer run unchanged on top — would-block propagates as a
// context switch at the byte-transport boundary, exactly how the paper
// routes enclave blocking through asyncall rather than through every
// caller's signature.
//
// Only the byte transport cooperates. Any other wait on a task — a
// synchronous enclave call, a logger drain, a forced check round — parks
// the whole shard thread, which is why there is one shard per core rather
// than a fixed two.
#ifndef SRC_SERVICES_REACTOR_H_
#define SRC_SERVICES_REACTOR_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/lthread/lthread.h"
#include "src/net/net.h"
#include "src/net/poller.h"

namespace seal::services {

class Reactor {
 public:
  // Per-connection task stack. Mapped lazily (lthread::Task), so a parked
  // connection costs the pages its deepest call touched, not the whole size.
  static constexpr size_t kTaskStackSize = 128 * 1024;

  Reactor();
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  void Start();
  // Wakes every connection task (their pending reads return EOF), runs them
  // to completion, joins the shards, and stops the poller. Safe to call
  // twice. Streams handed to Serve but not yet adopted are aborted.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  // Hands an accepted connection to a shard. `serve` runs on a cooperative
  // task; the stream it receives suspends the task instead of the OS
  // thread on blocking I/O. After Stop() the stream is aborted and `serve`
  // never runs.
  void Serve(net::StreamPtr stream, std::function<void(net::StreamPtr)> serve);

  // Wraps `stream` (e.g. a proxy's upstream leg or a LibSEAL bio stream)
  // so its blocking calls cooperate with the current reactor task. Must be
  // called from inside a `serve` callback; from anywhere else the stream
  // is returned unwrapped (stays blocking).
  net::StreamPtr MakeCooperative(net::StreamPtr stream);

  // Shard threads while running: one per core reported by the host
  // (std::thread::hardware_concurrency, 1 when it reports none).
  size_t shard_count() const { return shards_.size(); }

 private:
  friend class CooperativeStream;
  struct Shard;
  struct ConnCtx;
  struct Pending;

  void ShardLoop(Shard* shard);
  bool stopping() const { return stopping_.load(std::memory_order_acquire); }

  net::Poller poller_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> next_shard_{0};
};

}  // namespace seal::services

#endif  // SRC_SERVICES_REACTOR_H_
