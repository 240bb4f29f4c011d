#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <thread>

#include "src/common/clock.h"
#include "src/json/json.h"
#include "src/obs/obs.h"
#include "src/services/dropbox_service.h"
#include "src/services/git_service.h"
#include "src/services/http_server.h"
#include "src/services/https_client.h"
#include "src/services/owncloud_service.h"
#include "src/services/proxy.h"
#include "src/services/static_content.h"
#include "src/tls/x509.h"

namespace seal::services {
namespace {

struct Pki {
  Pki() {
    ca = tls::MakeSelfSignedCa("Services CA", crypto::EcdsaPrivateKey::FromSeed(ToBytes("ca")));
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

// --- service handler unit behaviour ---

TEST(GitBackend, PushThenFetch) {
  GitBackend backend;
  backend.Handle(MakeGitPush("r", {{"main", "c1"}, {"dev", "c2"}}));
  http::HttpResponse rsp = backend.Handle(MakeGitFetch("r"));
  auto refs = ParseAdvertisement(rsp.body);
  EXPECT_EQ(refs.size(), 2u);
  EXPECT_EQ(refs["main"], "c1");
}

TEST(GitBackend, DeleteRemovesRef) {
  GitBackend backend;
  backend.Handle(MakeGitPush("r", {{"main", "c1"}, {"dev", "c2"}}));
  backend.Handle(MakeGitPush("r", {}, {"dev"}));
  auto refs = ParseAdvertisement(backend.Handle(MakeGitFetch("r")).body);
  EXPECT_EQ(refs.size(), 1u);
  EXPECT_EQ(refs.count("dev"), 0u);
}

TEST(GitBackend, UnknownRepoIs404) {
  GitBackend backend;
  EXPECT_EQ(backend.Handle(MakeGitFetch("ghost")).status, 404);
}

TEST(GitBackend, RollbackAttackServesOldCommit) {
  GitBackend backend;
  backend.Handle(MakeGitPush("r", {{"main", "c1"}}));
  backend.Handle(MakeGitPush("r", {{"main", "c2"}}));
  backend.set_attack(GitBackend::Attack::kRollback);
  auto refs = ParseAdvertisement(backend.Handle(MakeGitFetch("r")).body);
  EXPECT_EQ(refs["main"], "c1");  // stale
  // The authoritative store is untouched: only the advertisement lies.
  EXPECT_EQ(backend.Refs("r")["main"], "c2");
}

TEST(GitWorkloadTest, GeneratesPushesAndFetches) {
  GitWorkload workload("r", 4, 1);
  int pushes = 0;
  int fetches = 0;
  for (int i = 0; i < 50; ++i) {
    http::HttpRequest req = workload.Next();
    if (req.method == "POST") {
      ++pushes;
    } else {
      ++fetches;
    }
  }
  EXPECT_EQ(pushes, 40);
  EXPECT_EQ(fetches, 10);
}

TEST(OwnCloud, SessionAssignedAndUpdatesServed) {
  OwnCloudService service;
  service.Handle(MakeOwnCloudSync("d", 0, "alice", 1, "x"));
  service.Handle(MakeOwnCloudSync("d", 0, "bob", 1, "y"));
  http::HttpResponse rsp = service.Handle(MakeOwnCloudJoin("d", "carol"));
  auto body = seal::json::Parse(rsp.body);
  ASSERT_TRUE(body.ok());
  EXPECT_GT(body->Get("session").AsInt(), 0);
  EXPECT_EQ(body->Get("updates").AsArray().size(), 2u);
}

TEST(OwnCloud, SnapshotServedToJoiners) {
  OwnCloudService service;
  service.Handle(MakeOwnCloudSnapshot("d", 0, "alice", "the content"));
  http::HttpResponse rsp = service.Handle(MakeOwnCloudJoin("d", "bob"));
  auto body = seal::json::Parse(rsp.body);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body->Get("snapshot").AsString(), "the content");
}

TEST(Dropbox, CommitThenList) {
  DropboxService service;
  service.Handle(MakeCommitBatch("a", "h", {{"f1", "bl1", 100}, {"f2", "bl2", 200}}));
  http::HttpResponse rsp = service.Handle(MakeListRequest("a"));
  auto body = seal::json::Parse(rsp.body);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body->Get("files").AsArray().size(), 2u);
}

TEST(Dropbox, DeleteRemovesFromList) {
  DropboxService service;
  service.Handle(MakeCommitBatch("a", "h", {{"f1", "bl1", 100}}));
  service.Handle(MakeCommitBatch("a", "h", {{"f1", "", -1}}));
  auto body = seal::json::Parse(service.Handle(MakeListRequest("a")).body);
  ASSERT_TRUE(body.ok());
  EXPECT_TRUE(body->Get("files").AsArray().empty());
}

TEST(Dropbox, AccountsAreIsolated) {
  DropboxService service;
  service.Handle(MakeCommitBatch("a", "h", {{"f1", "bl1", 100}}));
  auto body = seal::json::Parse(service.Handle(MakeListRequest("b")).body);
  ASSERT_TRUE(body.ok());
  EXPECT_TRUE(body->Get("files").AsArray().empty());
}

TEST(StaticContent, SizesHonoured) {
  http::HttpResponse rsp = ServeStaticContent(MakeContentRequest(1024));
  EXPECT_EQ(rsp.body.size(), 1024u);
  rsp = ServeStaticContent(MakeContentRequest(0));
  EXPECT_TRUE(rsp.body.empty());
}

// --- HTTPS server + client over plain TLS ---

TEST(HttpServerTest, ServesOverTls) {
  net::Network network;
  tls::TlsConfig server_tls = ServerTlsConfig();
  PlainTransport transport(server_tls);
  HttpServer server(&network, {.address = "web:443"}, &transport, ServeStaticContent);
  ASSERT_TRUE(server.Start().ok());

  tls::TlsConfig client_tls = ClientTlsConfig();
  auto rsp = OneShotRequest(&network, "web:443", client_tls, MakeContentRequest(512));
  ASSERT_TRUE(rsp.ok()) << rsp.status().ToString();
  EXPECT_EQ(rsp->status, 200);
  EXPECT_EQ(rsp->body.size(), 512u);
  EXPECT_EQ(server.requests_served(), 1u);
  server.Stop();
}

TEST(HttpServerTest, KeepAliveServesManyRequests) {
  net::Network network;
  tls::TlsConfig server_tls = ServerTlsConfig();
  PlainTransport transport(server_tls);
  HttpServer server(&network, {.address = "web:443"}, &transport, ServeStaticContent);
  ASSERT_TRUE(server.Start().ok());
  tls::TlsConfig client_tls = ClientTlsConfig();
  auto client = HttpsClient::Connect(&network, "web:443", client_tls);
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 20; ++i) {
    auto rsp = (*client)->RoundTrip(MakeContentRequest(i * 10, /*keep_alive=*/true));
    ASSERT_TRUE(rsp.ok());
    EXPECT_EQ(rsp->body.size(), static_cast<size_t>(i * 10));
  }
  (*client)->Close();
  server.Stop();
  EXPECT_EQ(server.requests_served(), 20u);
}

TEST(HttpServerTest, ConcurrentClients) {
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
        ASSERT_TRUE(rsp.ok());
      }
    });
  }
  for (auto& t : clients) {
    t.join();
  }
  server.Stop();
  EXPECT_EQ(server.requests_served(), static_cast<uint64_t>(kClients * 5));
}

TEST(HttpServerTest, PerRequestComputeSlowsResponses) {
  net::Network network;
  tls::TlsConfig server_tls = ServerTlsConfig();
  PlainTransport transport(server_tls);
  HttpServer server(&network,
                    {.address = "web:443", .per_request_compute_nanos = 20 * 1000 * 1000},
                    &transport, ServeStaticContent);
  ASSERT_TRUE(server.Start().ok());
  tls::TlsConfig client_tls = ClientTlsConfig();
  auto client = HttpsClient::Connect(&network, "web:443", client_tls);
  ASSERT_TRUE(client.ok());
  int64_t start = seal::NowNanos();
  ASSERT_TRUE((*client)->RoundTrip(MakeContentRequest(1, true)).ok());
  EXPECT_GE(seal::NowNanos() - start, 20 * 1000 * 1000);
  (*client)->Close();
  server.Stop();
}

TEST(HttpServerTest, WorkerThreadCountStaysBounded) {
  // Regression: the old thread-per-connection server grew one std::thread
  // per connection ever accepted, reaped only at Stop(). The reactor serves
  // every connection on one shard thread per core, no matter how many
  // sequential connections are served.
  net::Network network;
  tls::TlsConfig server_tls = ServerTlsConfig();
  PlainTransport transport(server_tls);
  HttpServer server(&network, {.address = "web:443"}, &transport, ServeStaticContent);
  ASSERT_TRUE(server.Start().ok());
  const size_t shards = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(server.worker_thread_count(), shards);
  tls::TlsConfig client_tls = ClientTlsConfig();
  constexpr int kConnections = 50;
  for (int i = 0; i < kConnections; ++i) {
    auto rsp = OneShotRequest(&network, "web:443", client_tls, MakeContentRequest(32));
    ASSERT_TRUE(rsp.ok()) << rsp.status().ToString();
    EXPECT_EQ(server.worker_thread_count(), shards);
  }
  EXPECT_EQ(server.requests_served(), static_cast<uint64_t>(kConnections));
  server.Stop();
}

TEST(HttpServerTest, SessionStoreResumesAcrossConnections) {
  // A client fleet sharing a ClientSessionStore takes the abbreviated
  // handshake on every reconnect after the first.
  net::Network network;
  tls::TlsConfig server_tls = ServerTlsConfig();
  PlainTransport transport(server_tls);
  HttpServer server(&network, {.address = "web:443"}, &transport, ServeStaticContent);
  ASSERT_TRUE(server.Start().ok());
  tls::TlsConfig client_tls = ClientTlsConfig();
  ClientSessionStore sessions;
  uint64_t resumed_before =
      obs::Registry::Global().TakeSnapshot().counter("tls_resumptions_total");
  for (int i = 0; i < 5; ++i) {
    auto client = HttpsClient::Connect(&network, "web:443", client_tls, 0, 0, &sessions);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    EXPECT_EQ((*client)->tls().resumed(), i > 0);
    auto rsp = (*client)->RoundTrip(MakeContentRequest(64));
    ASSERT_TRUE(rsp.ok());
    (*client)->Close();
  }
  uint64_t resumed_after =
      obs::Registry::Global().TakeSnapshot().counter("tls_resumptions_total");
  EXPECT_EQ(resumed_after - resumed_before, 4u);
  server.Stop();
}

// --- proxy ---

TEST(ProxyTest, RelaysThroughTwoTlsLegs) {
  net::Network network;
  // Origin.
  tls::TlsConfig origin_tls = ServerTlsConfig();
  PlainTransport origin_transport(origin_tls);
  DropboxService dropbox;
  HttpServer origin(&network, {.address = "dropbox:443"}, &origin_transport,
                    [&](const http::HttpRequest& r) { return dropbox.Handle(r); });
  ASSERT_TRUE(origin.Start().ok());
  // Proxy.
  tls::TlsConfig proxy_tls = ServerTlsConfig();
  PlainTransport proxy_transport(proxy_tls);
  ProxyServer::Options proxy_options;
  proxy_options.listen_address = "proxy:3128";
  proxy_options.upstream_address = "dropbox:443";
  proxy_options.upstream_tls = ClientTlsConfig();
  ProxyServer proxy(&network, proxy_options, &proxy_transport);
  ASSERT_TRUE(proxy.Start().ok());

  tls::TlsConfig client_tls = ClientTlsConfig();
  auto client = HttpsClient::Connect(&network, "proxy:3128", client_tls);
  ASSERT_TRUE(client.ok());
  auto rsp = (*client)->RoundTrip(MakeCommitBatch("a", "h", {{"f", "bl", 10}}));
  ASSERT_TRUE(rsp.ok());
  EXPECT_EQ(rsp->status, 200);
  rsp = (*client)->RoundTrip(MakeListRequest("a"));
  ASSERT_TRUE(rsp.ok());
  auto body = seal::json::Parse(rsp->body);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body->Get("files").AsArray().size(), 1u);
  (*client)->Close();
  proxy.Stop();
  origin.Stop();
  EXPECT_EQ(proxy.requests_proxied(), 2u);
}

// Regression (shutdown hang): a connection parked in Read on an idle
// keep-alive connection used to wedge Stop() forever. Stop() now wakes it
// with EOF before joining.
TEST(HttpServerTest, StopCompletesWithIdleKeepAliveConnection) {
  net::Network network;
  tls::TlsConfig server_tls = ServerTlsConfig();
  PlainTransport transport(server_tls);
  HttpServer server(&network, {.address = "web:443"}, &transport, ServeStaticContent);
  ASSERT_TRUE(server.Start().ok());
  tls::TlsConfig client_tls = ClientTlsConfig();
  auto client = HttpsClient::Connect(&network, "web:443", client_tls);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE((*client)->RoundTrip(MakeContentRequest(16, /*keep_alive=*/true)).ok());
  // The connection stays open and idle; its task is parked in Read.
  auto stopped = std::async(std::launch::async, [&] { server.Stop(); });
  ASSERT_EQ(stopped.wait_for(std::chrono::seconds(10)), std::future_status::ready)
      << "Stop() hung behind an idle keep-alive connection";
}

// Same hang on the proxy: the task is parked in a read on the downstream
// leg (or the upstream leg) of an idle proxied connection.
TEST(ProxyTest, StopCompletesWithIdleProxiedConnection) {
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
  auto client = HttpsClient::Connect(&network, "proxy:3128", client_tls);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE((*client)->RoundTrip(MakeContentRequest(16, /*keep_alive=*/true)).ok());
  auto stopped = std::async(std::launch::async, [&] { proxy.Stop(); });
  ASSERT_EQ(stopped.wait_for(std::chrono::seconds(10)), std::future_status::ready)
      << "proxy Stop() hung behind an idle proxied connection";
  origin.Stop();
}

// Regression (Connection header): the server compared the raw header value
// against the exact lowercase string "close", so "Close", "keep-alive,
// close", and HTTP/1.0's close-by-default all kept the connection alive.
// Observable end-to-end: after a response that should close, the next
// round trip on the same connection fails.
TEST(HttpServerTest, ConnectionCloseIsCaseInsensitive) {
  net::Network network;
  tls::TlsConfig server_tls = ServerTlsConfig();
  PlainTransport transport(server_tls);
  HttpServer server(&network, {.address = "web:443"}, &transport, ServeStaticContent);
  ASSERT_TRUE(server.Start().ok());
  tls::TlsConfig client_tls = ClientTlsConfig();
  auto client = HttpsClient::Connect(&network, "web:443", client_tls);
  ASSERT_TRUE(client.ok());
  http::HttpRequest req = MakeContentRequest(16, /*keep_alive=*/true);
  req.SetHeader("Connection", "Close");  // capital C, RFC 7230 tokens are case-insensitive
  ASSERT_TRUE((*client)->RoundTrip(req).ok());
  EXPECT_FALSE((*client)->RoundTrip(MakeContentRequest(16, true)).ok())
      << "server ignored 'Connection: Close' and kept the connection alive";
  server.Stop();
}

TEST(HttpServerTest, ConnectionCloseInTokenList) {
  net::Network network;
  tls::TlsConfig server_tls = ServerTlsConfig();
  PlainTransport transport(server_tls);
  HttpServer server(&network, {.address = "web:443"}, &transport, ServeStaticContent);
  ASSERT_TRUE(server.Start().ok());
  tls::TlsConfig client_tls = ClientTlsConfig();
  auto client = HttpsClient::Connect(&network, "web:443", client_tls);
  ASSERT_TRUE(client.ok());
  http::HttpRequest req = MakeContentRequest(16, /*keep_alive=*/true);
  req.SetHeader("Connection", "keep-alive, close");  // close wins
  ASSERT_TRUE((*client)->RoundTrip(req).ok());
  EXPECT_FALSE((*client)->RoundTrip(MakeContentRequest(16, true)).ok())
      << "server ignored 'close' inside a Connection token list";
  server.Stop();
}

TEST(HttpServerTest, Http10DefaultsToClose) {
  net::Network network;
  tls::TlsConfig server_tls = ServerTlsConfig();
  PlainTransport transport(server_tls);
  HttpServer server(&network, {.address = "web:443"}, &transport, ServeStaticContent);
  ASSERT_TRUE(server.Start().ok());
  tls::TlsConfig client_tls = ClientTlsConfig();
  auto client = HttpsClient::Connect(&network, "web:443", client_tls);
  ASSERT_TRUE(client.ok());
  // keep_alive=true -> no Connection header at all; 1.0 must still close.
  http::HttpRequest req = MakeContentRequest(16, /*keep_alive=*/true);
  req.version = "HTTP/1.0";
  ASSERT_TRUE((*client)->RoundTrip(req).ok());
  EXPECT_FALSE((*client)->RoundTrip(MakeContentRequest(16, true)).ok())
      << "server kept an HTTP/1.0 connection alive without 'keep-alive'";
  server.Stop();
}

TEST(HttpServerTest, Http10KeepAliveOptInPersists) {
  net::Network network;
  tls::TlsConfig server_tls = ServerTlsConfig();
  PlainTransport transport(server_tls);
  HttpServer server(&network, {.address = "web:443"}, &transport, ServeStaticContent);
  ASSERT_TRUE(server.Start().ok());
  tls::TlsConfig client_tls = ClientTlsConfig();
  auto client = HttpsClient::Connect(&network, "web:443", client_tls);
  ASSERT_TRUE(client.ok());
  http::HttpRequest req = MakeContentRequest(16, /*keep_alive=*/true);
  req.version = "HTTP/1.0";
  req.SetHeader("Connection", "keep-alive");
  ASSERT_TRUE((*client)->RoundTrip(req).ok());
  EXPECT_TRUE((*client)->RoundTrip(MakeContentRequest(16, true)).ok())
      << "server closed an HTTP/1.0 connection that opted into keep-alive";
  (*client)->Close();
  server.Stop();
}

TEST(ProxyTest, UpstreamLatencyAddsToRoundTrip) {
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
  proxy_options.upstream_latency_nanos = 10 * 1000 * 1000;  // 10 ms one-way
  proxy_options.upstream_tls = ClientTlsConfig();
  ProxyServer proxy(&network, proxy_options, &proxy_transport);
  ASSERT_TRUE(proxy.Start().ok());

  tls::TlsConfig client_tls = ClientTlsConfig();
  auto client = HttpsClient::Connect(&network, "proxy:3128", client_tls);
  ASSERT_TRUE(client.ok());
  int64_t start = seal::NowNanos();
  ASSERT_TRUE((*client)->RoundTrip(MakeContentRequest(16, true)).ok());
  // At least one upstream round trip (2 x 10 ms), plus the upstream TLS
  // handshake which also crosses the slow link.
  EXPECT_GE(seal::NowNanos() - start, 20 * 1000 * 1000);
  (*client)->Close();
  proxy.Stop();
  origin.Stop();
}

}  // namespace
}  // namespace seal::services
