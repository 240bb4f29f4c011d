#include "src/services/http_server.h"

#include "src/common/clock.h"

namespace seal::services {

HttpServer::HttpServer(net::Network* network, Options options, ServerTransport* transport,
                       HttpHandler handler)
    : network_(network),
      options_(std::move(options)),
      transport_(transport),
      handler_(std::move(handler)) {}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start() {
  auto listener = network_->Listen(options_.address);
  if (!listener.ok()) {
    return listener.status();
  }
  listener_ = *listener;
  running_.store(true, std::memory_order_release);
  reactor_ = std::make_unique<Reactor>();
  reactor_->Start();
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void HttpServer::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  listener_->Shutdown();
  network_->Unlisten(options_.address);
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  // Wakes every task parked on an idle keep-alive connection (its read
  // returns EOF) and runs them all to completion.
  reactor_->Stop();
  reactor_.reset();
}

void HttpServer::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    net::StreamPtr stream = listener_->Accept();
    if (stream == nullptr) {
      return;  // shut down
    }
    reactor_->Serve(std::move(stream), [this](net::StreamPtr s) { ServeConnection(std::move(s)); });
  }
}

void HttpServer::ServeConnection(net::StreamPtr stream) {
  std::unique_ptr<ServerConnection> conn = transport_->Wrap(std::move(stream));
  if (conn->Handshake() == 1) {
    for (;;) {
      auto rawmsg = http::ReadHttpMessage([&](uint8_t* buf, size_t max) {
        int n = conn->Read(buf, static_cast<int>(max));
        return n <= 0 ? size_t{0} : static_cast<size_t>(n);
      });
      if (!rawmsg.ok()) {
        break;  // client closed or garbage
      }
      auto request = http::ParseRequest(*rawmsg);
      if (!request.ok()) {
        break;
      }
      if (options_.per_request_compute_nanos > 0) {
        // CPU time, not wall time: concurrent requests on a loaded machine
        // must not double-count the simulated application work.
        SpinCpuNanos(options_.per_request_compute_nanos);
      }
      http::HttpResponse response = handler_(*request);
      // Count before writing: a client that already has the response must
      // observe the request as served.
      requests_served_.fetch_add(1, std::memory_order_relaxed);
      std::string wire = response.Serialize();
      if (conn->Write(reinterpret_cast<const uint8_t*>(wire.data()),
                      static_cast<int>(wire.size())) < 0) {
        break;
      }
      if (http::RequestsConnectionClose(*request)) {
        break;
      }
    }
    conn->Close();
  }
}

}  // namespace seal::services
