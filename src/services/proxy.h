// HTTPS forward proxy: the Squid stand-in (§6.4 Dropbox deployment, §6.6
// Squid experiments). Terminates the client's TLS connection with either
// plain TLS or LibSEAL, opens a second TLS connection to the origin, and
// relays complete HTTP messages in both directions -- so a LibSEAL-linked
// proxy audits every request/response pair crossing it. Serves connections
// on the reactor; both legs of a proxied connection cooperate on one task.
#ifndef SRC_SERVICES_PROXY_H_
#define SRC_SERVICES_PROXY_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "src/common/status.h"
#include "src/net/net.h"
#include "src/services/reactor.h"
#include "src/services/transport.h"
#include "src/tls/tls.h"

namespace seal::services {

class ProxyServer {
 public:
  struct Options {
    std::string listen_address;
    std::string upstream_address;
    // One-way latency of the upstream link (76 ms to Dropbox, §6.4).
    int64_t upstream_latency_nanos = 0;
    // TLS client configuration for the upstream leg.
    tls::TlsConfig upstream_tls;
    // When set, the upstream leg ALSO runs through LibSEAL (as in the
    // paper, where the whole Squid process links against one TLS library
    // and both connections' protocol code executes inside the enclave).
    // The runtime's TlsConfig then governs the upstream handshake too
    // (its trusted_roots / verify_peer apply); `upstream_tls` is unused.
    core::LibSealRuntime* upstream_runtime = nullptr;
  };

  ProxyServer(net::Network* network, Options options, ServerTransport* transport);
  ~ProxyServer();

  Status Start();
  void Stop();

  uint64_t requests_proxied() const { return requests_proxied_.load(std::memory_order_relaxed); }

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

  std::shared_ptr<net::Listener> listener_;
  std::thread accept_thread_;
  std::unique_ptr<Reactor> reactor_;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> requests_proxied_{0};
};

}  // namespace seal::services

#endif  // SRC_SERVICES_PROXY_H_
