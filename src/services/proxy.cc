#include "src/services/proxy.h"

#include <functional>

#include "src/http/http.h"

namespace seal::services {

ProxyServer::ProxyServer(net::Network* network, Options options, ServerTransport* transport)
    : network_(network),
      options_(std::move(options)),
      transport_(transport) {}

ProxyServer::~ProxyServer() { Stop(); }

Status ProxyServer::Start() {
  auto listener = network_->Listen(options_.listen_address);
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

void ProxyServer::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  listener_->Shutdown();
  network_->Unlisten(options_.listen_address);
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  // Wakes every task parked on either leg of an idle proxied connection
  // (its read returns EOF) and runs them all to completion.
  reactor_->Stop();
  reactor_.reset();
}

void ProxyServer::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    net::StreamPtr stream = listener_->Accept();
    if (stream == nullptr) {
      return;
    }
    reactor_->Serve(std::move(stream), [this](net::StreamPtr s) { ServeConnection(std::move(s)); });
  }
}

void ProxyServer::ServeConnection(net::StreamPtr stream) {
  std::unique_ptr<ServerConnection> downstream = transport_->Wrap(std::move(stream));
  if (downstream->Handshake() != 1) {
    return;
  }
  // Second TLS leg to the origin (this is what makes Squid slower than
  // Apache in Fig. 7b: two handshakes, double en-/decryption).
  auto dialed = network_->Dial(options_.upstream_address, options_.upstream_latency_nanos);
  if (!dialed.ok()) {
    downstream->Close();
    return;
  }
  // The upstream leg must cooperate too: a blocking upstream read would
  // park the whole shard thread.
  net::StreamPtr upstream_stream = reactor_->MakeCooperative(std::move(*dialed));

  // The upstream leg runs either through LibSEAL (the paper's deployment:
  // one TLS library for the whole proxy) or through plain TLS.
  std::function<size_t(uint8_t*, size_t)> upstream_read;
  std::function<bool(const std::string&)> upstream_write;
  std::function<void()> upstream_close;

  std::unique_ptr<tls::StreamBio> plain_bio;
  std::unique_ptr<tls::TlsConnection> plain_upstream;
  core::LibSealSsl* seal_upstream = nullptr;
  bool upstream_ok = true;

  if (options_.upstream_runtime != nullptr) {
    seal_upstream =
        options_.upstream_runtime->SslNew(upstream_stream.get(), tls::Role::kClient);
    if (seal_upstream == nullptr ||
        options_.upstream_runtime->SslHandshake(seal_upstream) != 1) {
      if (seal_upstream != nullptr) {
        options_.upstream_runtime->SslFree(seal_upstream);
        seal_upstream = nullptr;
      }
      upstream_ok = false;
    } else {
      core::LibSealRuntime* runtime = options_.upstream_runtime;
      core::LibSealSsl* ssl = seal_upstream;
      upstream_read = [runtime, ssl](uint8_t* buf, size_t max) {
        int n = runtime->SslRead(ssl, buf, static_cast<int>(max));
        return n <= 0 ? size_t{0} : static_cast<size_t>(n);
      };
      upstream_write = [runtime, ssl](const std::string& data) {
        return runtime->SslWrite(ssl, reinterpret_cast<const uint8_t*>(data.data()),
                                 static_cast<int>(data.size())) >= 0;
      };
      upstream_close = [runtime, ssl] { runtime->SslShutdown(ssl); };
    }
  } else {
    plain_bio = std::make_unique<tls::StreamBio>(upstream_stream.get());
    plain_upstream = std::make_unique<tls::TlsConnection>(plain_bio.get(),
                                                          &options_.upstream_tls,
                                                          tls::Role::kClient);
    if (!plain_upstream->Handshake().ok()) {
      upstream_ok = false;
    } else {
      tls::TlsConnection* conn = plain_upstream.get();
      upstream_read = [conn](uint8_t* buf, size_t max) {
        auto n = conn->Read(buf, max);
        return n.ok() ? *n : size_t{0};
      };
      upstream_write = [conn](const std::string& data) { return conn->Write(data).ok(); };
      upstream_close = [conn] { conn->Close(); };
    }
  }

  if (upstream_ok) {
    for (;;) {
      auto request = http::ReadHttpMessage([&](uint8_t* buf, size_t max) {
        int n = downstream->Read(buf, static_cast<int>(max));
        return n <= 0 ? size_t{0} : static_cast<size_t>(n);
      });
      if (!request.ok()) {
        break;
      }
      if (!upstream_write(*request)) {
        break;
      }
      auto response = http::ReadHttpMessage(upstream_read);
      if (!response.ok()) {
        break;
      }
      if (downstream->Write(reinterpret_cast<const uint8_t*>(response->data()),
                            static_cast<int>(response->size())) < 0) {
        break;
      }
      requests_proxied_.fetch_add(1, std::memory_order_relaxed);
    }
    upstream_close();
  }
  if (seal_upstream != nullptr) {
    options_.upstream_runtime->SslFree(seal_upstream);
  }
  downstream->Close();
}

}  // namespace seal::services
