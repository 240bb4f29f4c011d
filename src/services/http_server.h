// A multi-threaded HTTPS server, the stand-in for Apache in the paper's
// evaluation: keep-alive and handler-based dispatch, with every connection
// served by a cooperative task on the reactor (one shard thread per core).
#ifndef SRC_SERVICES_HTTP_SERVER_H_
#define SRC_SERVICES_HTTP_SERVER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "src/common/status.h"
#include "src/http/http.h"
#include "src/net/net.h"
#include "src/services/reactor.h"
#include "src/services/transport.h"

namespace seal::services {

using HttpHandler = std::function<http::HttpResponse(const http::HttpRequest&)>;

class HttpServer {
 public:
  struct Options {
    std::string address;
    // Simulated per-request server-side compute (models the PHP engine
    // bottleneck in the ownCloud deployment, §6.4).
    int64_t per_request_compute_nanos = 0;
  };

  HttpServer(net::Network* network, Options options, ServerTransport* transport,
             HttpHandler handler);
  ~HttpServer();

  Status Start();
  void Stop();

  uint64_t requests_served() const { return requests_served_.load(std::memory_order_relaxed); }

  // Connection-serving threads (the reactor's shards) while running; fixed
  // no matter how many connections have been accepted.
  size_t worker_thread_count() const {
    return reactor_ != nullptr ? reactor_->shard_count() : 0;
  }

 private:
  void AcceptLoop();
  void ServeConnection(net::StreamPtr stream);

  net::Network* network_;
  Options options_;
  ServerTransport* transport_;
  HttpHandler handler_;

  std::shared_ptr<net::Listener> listener_;
  std::thread accept_thread_;
  std::unique_ptr<Reactor> reactor_;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> requests_served_{0};
};

}  // namespace seal::services

#endif  // SRC_SERVICES_HTTP_SERVER_H_
