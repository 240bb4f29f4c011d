// The connection core: HttpServer/ProxyServer on the reactor, cooperative
// lthread tasks multiplexed onto one OS thread per core by the poller.
// Covers TLS-over-reactor, idle keep-alive scaling past the thread count,
// LibSEAL behind the reactor (the asyncall cooperative path), and prompt
// shutdown with parked connections.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/libseal.h"
#include "src/obs/obs.h"
#include "src/services/git_service.h"
#include "src/services/http_server.h"
#include "src/services/https_client.h"
#include "src/services/proxy.h"
#include "src/services/static_content.h"
#include "src/ssm/git_ssm.h"
#include "src/tls/x509.h"

namespace seal::services {
namespace {

struct Pki {
  Pki() {
    ca = tls::MakeSelfSignedCa("Reactor CA", crypto::EcdsaPrivateKey::FromSeed(ToBytes("ca")));
    server_key = crypto::EcdsaPrivateKey::FromSeed(ToBytes("srv"));
    server_cert = tls::IssueCertificate(ca, "server", server_key.public_key(), 2);
  }
  tls::CertifiedKey ca;
  crypto::EcdsaPrivateKey server_key;
  tls::Certificate server_cert;
};

Pki& GetPki() {
  static Pki pki;
  return pki;
}

tls::TlsConfig ServerTlsConfig() {
  tls::TlsConfig config;
  config.certificate = GetPki().server_cert;
  config.private_key = GetPki().server_key;
  return config;
}

tls::TlsConfig ClientTlsConfig() {
  tls::TlsConfig config;
  config.trusted_roots = {GetPki().ca.cert};
  return config;
}

// The reactor's shard count: one per core.
size_t Shards() { return std::max(1u, std::thread::hardware_concurrency()); }

TEST(ReactorHttpTest, ServesOverTls) {
  net::Network network;
  tls::TlsConfig server_tls = ServerTlsConfig();
  PlainTransport transport(server_tls);
  HttpServer server(&network, {.address = "web:443"}, &transport, ServeStaticContent);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.worker_thread_count(), Shards());

  tls::TlsConfig client_tls = ClientTlsConfig();
  auto rsp = OneShotRequest(&network, "web:443", client_tls, MakeContentRequest(512));
  ASSERT_TRUE(rsp.ok()) << rsp.status().ToString();
  EXPECT_EQ(rsp->status, 200);
  EXPECT_EQ(rsp->body.size(), 512u);
  server.Stop();
  EXPECT_EQ(server.requests_served(), 1u);
}

TEST(ReactorHttpTest, KeepAliveManyRequests) {
  net::Network network;
  tls::TlsConfig server_tls = ServerTlsConfig();
  PlainTransport transport(server_tls);
  HttpServer server(&network, {.address = "web:443"}, &transport, ServeStaticContent);
  ASSERT_TRUE(server.Start().ok());
  tls::TlsConfig client_tls = ClientTlsConfig();
  auto client = HttpsClient::Connect(&network, "web:443", client_tls);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (int i = 0; i < 20; ++i) {
    auto rsp = (*client)->RoundTrip(MakeContentRequest(i * 10, /*keep_alive=*/true));
    ASSERT_TRUE(rsp.ok()) << rsp.status().ToString();
    EXPECT_EQ(rsp->body.size(), static_cast<size_t>(i * 10));
  }
  (*client)->Close();
  server.Stop();
  EXPECT_EQ(server.requests_served(), 20u);
}

// The tentpole property: connections are bounded by memory, not threads.
// Far more simultaneously-open idle keep-alive connections than reactor
// threads, all still serviceable.
TEST(ReactorHttpTest, IdleConnectionsExceedThreadCount) {
  net::Network network;
  tls::TlsConfig server_tls = ServerTlsConfig();
  PlainTransport transport(server_tls);
  HttpServer server(&network, {.address = "web:443"}, &transport, ServeStaticContent);
  ASSERT_TRUE(server.Start().ok());
  tls::TlsConfig client_tls = ClientTlsConfig();

  const size_t kConns = std::max<size_t>(64, 8 * Shards());
  std::vector<std::unique_ptr<HttpsClient>> clients;
  for (size_t i = 0; i < kConns; ++i) {
    auto client = HttpsClient::Connect(&network, "web:443", client_tls);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    auto rsp = (*client)->RoundTrip(MakeContentRequest(32, /*keep_alive=*/true));
    ASSERT_TRUE(rsp.ok()) << rsp.status().ToString();
    clients.push_back(std::move(*client));
  }
  // All kConns connections are now open and idle at once on the shards.
  EXPECT_EQ(server.worker_thread_count(), Shards());
  // Every one of them is still live: a second request round-trips.
  for (auto& client : clients) {
    auto rsp = client->RoundTrip(MakeContentRequest(8, /*keep_alive=*/true));
    ASSERT_TRUE(rsp.ok()) << rsp.status().ToString();
  }
  EXPECT_EQ(server.requests_served(), 2 * kConns);
  for (auto& client : clients) {
    client->Close();
  }
  server.Stop();

  // The reactor actually did the work: poller dispatches and cross-thread
  // wakeups were observed.
  obs::Snapshot snapshot = obs::Registry::Global().TakeSnapshot();
  EXPECT_GT(snapshot.counter("reactor_wakeups_total"), 0u);
  EXPECT_GT(snapshot.counter("poller_dispatch_total"), 0u);
}

TEST(ReactorHttpTest, ConcurrentClientThreads) {
  net::Network network;
  tls::TlsConfig server_tls = ServerTlsConfig();
  PlainTransport transport(server_tls);
  HttpServer server(&network, {.address = "web:443"}, &transport, ServeStaticContent);
  ASSERT_TRUE(server.Start().ok());
  tls::TlsConfig client_tls = ClientTlsConfig();
  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < 5; ++i) {
        auto rsp = OneShotRequest(&network, "web:443", client_tls, MakeContentRequest(64));
        ASSERT_TRUE(rsp.ok()) << rsp.status().ToString();
      }
    });
  }
  for (auto& t : clients) {
    t.join();
  }
  server.Stop();
  EXPECT_EQ(server.requests_served(), static_cast<uint64_t>(kClients * 5));
}

// Stop() with idle keep-alive connections parked on reactor tasks must
// complete promptly (the tasks are woken, observe stopping, and exit).
TEST(ReactorHttpTest, StopCompletesWithIdleKeepAliveConnections) {
  net::Network network;
  tls::TlsConfig server_tls = ServerTlsConfig();
  PlainTransport transport(server_tls);
  HttpServer server(&network, {.address = "web:443"}, &transport, ServeStaticContent);
  ASSERT_TRUE(server.Start().ok());
  tls::TlsConfig client_tls = ClientTlsConfig();

  std::vector<std::unique_ptr<HttpsClient>> clients;
  for (int i = 0; i < 8; ++i) {
    auto client = HttpsClient::Connect(&network, "web:443", client_tls);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    ASSERT_TRUE((*client)->RoundTrip(MakeContentRequest(16, /*keep_alive=*/true)).ok());
    clients.push_back(std::move(*client));
  }
  // All 8 server-side tasks are parked in a read on idle connections.
  auto stopped = std::async(std::launch::async, [&] { server.Stop(); });
  ASSERT_EQ(stopped.wait_for(std::chrono::seconds(10)), std::future_status::ready)
      << "Stop() hung behind idle keep-alive reactor connections";
}

// Connection churn racing shutdown: dialers keep arriving while Stop runs.
// Nothing may hang or crash; late dials fail or get aborted streams.
TEST(ReactorHttpTest, ChurnDuringStop) {
  net::Network network;
  tls::TlsConfig server_tls = ServerTlsConfig();
  PlainTransport transport(server_tls);
  HttpServer server(&network, {.address = "web:443"}, &transport, ServeStaticContent);
  ASSERT_TRUE(server.Start().ok());
  tls::TlsConfig client_tls = ClientTlsConfig();

  std::atomic<bool> stop{false};
  std::vector<std::thread> churners;
  for (int c = 0; c < 4; ++c) {
    churners.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        // Failures are expected once Stop begins; only hangs are bugs.
        (void)OneShotRequest(&network, "web:443", client_tls, MakeContentRequest(16));
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.Stop();
  stop.store(true, std::memory_order_release);
  for (auto& t : churners) {
    t.join();
  }
}

// LibSEAL behind the reactor: TLS terminates inside the simulated enclave,
// requests cross the async-call boundary from cooperative lthread tasks
// (the any-slot + Yield path), and auditing still works.
TEST(ReactorLibSealTest, GitServiceEventDriven) {
  net::Network network;
  core::LibSealOptions options;
  options.enclave.inject_costs = false;
  options.use_async_calls = true;
  options.async.enclave_threads = 2;
  options.async.tasks_per_thread = 16;
  options.audit_log.counter_options.inject_latency = false;
  options.logger.check_interval = 0;
  options.tls.certificate = GetPki().server_cert;
  options.tls.private_key = GetPki().server_key;
  core::LibSealRuntime runtime(std::move(options), std::make_unique<ssm::GitModule>());
  ASSERT_TRUE(runtime.Init().ok());
  LibSealTransport transport(&runtime);
  GitBackend backend;
  HttpServer server(&network, {.address = "git:443"}, &transport,
                    [&](const http::HttpRequest& r) { return backend.Handle(r); });
  ASSERT_TRUE(server.Start().ok());

  tls::TlsConfig client_tls = ClientTlsConfig();
  constexpr int kClients = 6;  // concurrent tasks sharing the shard threads
  std::vector<std::thread> threads;
  std::atomic<int> ok_count{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = HttpsClient::Connect(&network, "git:443", client_tls);
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      std::string repo = "repo" + std::to_string(c);
      for (int i = 1; i <= 3; ++i) {
        auto rsp = (*client)->RoundTrip(MakeGitPush(repo, {{"main", "c" + std::to_string(i)}}));
        ASSERT_TRUE(rsp.ok()) << rsp.status().ToString();
        EXPECT_EQ(rsp->status, 200);
      }
      auto fetch = (*client)->RoundTrip(MakeGitFetch(repo));
      ASSERT_TRUE(fetch.ok()) << fetch.status().ToString();
      EXPECT_EQ(fetch->status, 200);
      (*client)->Close();
      ok_count.fetch_add(1);
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(ok_count.load(), kClients);
  server.Stop();
  runtime.Shutdown();
}

TEST(ReactorProxyTest, EventDrivenProxyEndToEnd) {
  net::Network network;
  tls::TlsConfig origin_tls = ServerTlsConfig();
  PlainTransport origin_transport(origin_tls);
  HttpServer origin(&network, {.address = "origin:443"}, &origin_transport, ServeStaticContent);
  ASSERT_TRUE(origin.Start().ok());

  tls::TlsConfig proxy_tls = ServerTlsConfig();
  PlainTransport proxy_transport(proxy_tls);
  ProxyServer::Options proxy_options;
  proxy_options.listen_address = "proxy:3128";
  proxy_options.upstream_address = "origin:443";
  proxy_options.upstream_tls = ClientTlsConfig();
  ProxyServer proxy(&network, proxy_options, &proxy_transport);
  ASSERT_TRUE(proxy.Start().ok());
  EXPECT_EQ(proxy.worker_thread_count(), Shards());

  tls::TlsConfig client_tls = ClientTlsConfig();
  constexpr int kClients = 8;  // all live at once
  std::vector<std::unique_ptr<HttpsClient>> clients;
  for (int i = 0; i < kClients; ++i) {
    auto client = HttpsClient::Connect(&network, "proxy:3128", client_tls);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    auto rsp = (*client)->RoundTrip(MakeContentRequest(128, /*keep_alive=*/true));
    ASSERT_TRUE(rsp.ok()) << rsp.status().ToString();
    EXPECT_EQ(rsp->body.size(), 128u);
    clients.push_back(std::move(*client));
  }
  for (auto& client : clients) {  // all conns still live after being idle
    auto rsp = client->RoundTrip(MakeContentRequest(64, /*keep_alive=*/true));
    ASSERT_TRUE(rsp.ok()) << rsp.status().ToString();
    client->Close();
  }
  // Check after Stop(): the proxy counts a request only after relaying the
  // response, which races the client's read of it.
  proxy.Stop();
  origin.Stop();
  EXPECT_EQ(proxy.requests_proxied(), static_cast<uint64_t>(2 * kClients));
}

// Proxy Stop() with idle proxied connections: both legs of every proxied
// connection are parked on one reactor task; Stop must abort them.
TEST(ReactorProxyTest, StopCompletesWithIdleProxiedConnections) {
  net::Network network;
  tls::TlsConfig origin_tls = ServerTlsConfig();
  PlainTransport origin_transport(origin_tls);
  HttpServer origin(&network, {.address = "origin:443"}, &origin_transport, ServeStaticContent);
  ASSERT_TRUE(origin.Start().ok());
  tls::TlsConfig proxy_tls = ServerTlsConfig();
  PlainTransport proxy_transport(proxy_tls);
  ProxyServer::Options proxy_options;
  proxy_options.listen_address = "proxy:3128";
  proxy_options.upstream_address = "origin:443";
  proxy_options.upstream_tls = ClientTlsConfig();
  ProxyServer proxy(&network, proxy_options, &proxy_transport);
  ASSERT_TRUE(proxy.Start().ok());

  tls::TlsConfig client_tls = ClientTlsConfig();
  std::vector<std::unique_ptr<HttpsClient>> clients;
  for (int i = 0; i < 4; ++i) {
    auto client = HttpsClient::Connect(&network, "proxy:3128", client_tls);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    ASSERT_TRUE((*client)->RoundTrip(MakeContentRequest(16, /*keep_alive=*/true)).ok());
    clients.push_back(std::move(*client));
  }
  auto stopped = std::async(std::launch::async, [&] { proxy.Stop(); });
  ASSERT_EQ(stopped.wait_for(std::chrono::seconds(10)), std::future_status::ready)
      << "proxy Stop() hung behind idle proxied reactor connections";
  origin.Stop();
}

}  // namespace
}  // namespace seal::services
