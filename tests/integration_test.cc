// End-to-end integration: real TLS clients talk to services running behind
// LibSEAL (TLS terminated inside the simulated enclave, audit log + SQL
// invariants inside), attacks are injected at the service, and clients
// learn about violations through the in-band Libseal-Check mechanism.
#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "src/core/libseal.h"
#include "src/core/log_segment.h"
#include "src/obs/obs.h"
#include "src/services/dropbox_service.h"
#include "src/services/git_service.h"
#include "src/services/http_server.h"
#include "src/services/https_client.h"
#include "src/services/owncloud_service.h"
#include "src/services/proxy.h"
#include "src/ssm/dropbox_ssm.h"
#include "src/ssm/git_ssm.h"
#include "src/ssm/owncloud_ssm.h"
#include "src/tls/x509.h"

namespace seal {
namespace {

struct Pki {
  Pki() {
    ca = tls::MakeSelfSignedCa("Integration CA",
                               crypto::EcdsaPrivateKey::FromSeed(ToBytes("ca")));
    server_key = crypto::EcdsaPrivateKey::FromSeed(ToBytes("srv"));
    server_cert = tls::IssueCertificate(ca, "libseal.service", server_key.public_key(), 2);
  }
  tls::CertifiedKey ca;
  crypto::EcdsaPrivateKey server_key;
  tls::Certificate server_cert;
};

Pki& GetPki() {
  static Pki pki;
  return pki;
}

core::LibSealOptions MakeLibSealOptions(size_t check_interval) {
  core::LibSealOptions options;
  options.enclave.inject_costs = false;
  options.use_async_calls = true;
  options.async.enclave_threads = 2;
  options.async.tasks_per_thread = 16;
  options.audit_log.counter_options.inject_latency = false;
  options.logger.check_interval = check_interval;
  options.tls.certificate = GetPki().server_cert;
  options.tls.private_key = GetPki().server_key;
  return options;
}

tls::TlsConfig ClientTls() {
  tls::TlsConfig config;
  config.trusted_roots = {GetPki().ca.cert};
  return config;
}

std::string CheckHeaderOrEmpty(const http::HttpResponse& rsp) {
  const std::string* h = rsp.GetHeader("Libseal-Check-Result");
  return h == nullptr ? "" : *h;
}

// --- Git behind Apache(-like) + LibSEAL ---

TEST(Integration, GitCleanAndAttackedRuns) {
  net::Network network;
  core::LibSealRuntime runtime(MakeLibSealOptions(0), std::make_unique<ssm::GitModule>());
  ASSERT_TRUE(runtime.Init().ok());
  services::LibSealTransport transport(&runtime);
  services::GitBackend backend;
  services::HttpServer server(&network, {.address = "git:443"}, &transport,
                              [&](const http::HttpRequest& r) { return backend.Handle(r); });
  ASSERT_TRUE(server.Start().ok());

  tls::TlsConfig client_tls = ClientTls();
  auto client = services::HttpsClient::Connect(&network, "git:443", client_tls);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // A few pushes and a clean audited fetch.
  for (int i = 1; i <= 5; ++i) {
    auto rsp = (*client)->RoundTrip(
        services::MakeGitPush("repo", {{"main", "c" + std::to_string(i)}}));
    ASSERT_TRUE(rsp.ok()) << rsp.status().ToString();
    EXPECT_EQ(rsp->status, 200);
  }
  auto clean = (*client)->RoundTrip(services::MakeGitFetch("repo", /*libseal_check=*/true));
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(CheckHeaderOrEmpty(*clean).rfind("ok", 0), 0u) << CheckHeaderOrEmpty(*clean);

  // Rollback attack: detected in-band.
  backend.set_attack(services::GitBackend::Attack::kRollback);
  auto dirty = (*client)->RoundTrip(services::MakeGitFetch("repo", /*libseal_check=*/true));
  ASSERT_TRUE(dirty.ok());
  EXPECT_NE(CheckHeaderOrEmpty(*dirty).find("git-soundness"), std::string::npos)
      << CheckHeaderOrEmpty(*dirty);

  (*client)->Close();
  server.Stop();
  runtime.Shutdown();
}

TEST(Integration, GitMultipleConcurrentClients) {
  net::Network network;
  core::LibSealRuntime runtime(MakeLibSealOptions(25), std::make_unique<ssm::GitModule>());
  ASSERT_TRUE(runtime.Init().ok());
  services::LibSealTransport transport(&runtime);
  services::GitBackend backend;
  services::HttpServer server(&network, {.address = "git:443"}, &transport,
                              [&](const http::HttpRequest& r) { return backend.Handle(r); });
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 4;
  constexpr int kOpsPerClient = 15;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      tls::TlsConfig client_tls = ClientTls();
      auto client = services::HttpsClient::Connect(&network, "git:443", client_tls);
      ASSERT_TRUE(client.ok());
      services::GitWorkload workload("repo-" + std::to_string(c), 3,
                                     static_cast<uint64_t>(c) + 1);
      for (int i = 0; i < kOpsPerClient; ++i) {
        auto rsp = (*client)->RoundTrip(workload.Next());
        ASSERT_TRUE(rsp.ok()) << rsp.status().ToString();
      }
      (*client)->Close();
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  server.Stop();
  EXPECT_EQ(runtime.logger()->pairs_logged(), kClients * kOpsPerClient);
  // No violations on honest runs, even with interval checks + trimming.
  auto report = runtime.logger()->CheckInvariants();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->Summary();
  runtime.Shutdown();
}

TEST(Integration, GitPersistedLogSurvivesVerification) {
  std::string path = std::string(::testing::TempDir()) + "/integration_git.log";
  net::Network network;
  core::LibSealOptions options = MakeLibSealOptions(0);
  options.audit_log.mode = core::PersistenceMode::kDisk;
  options.audit_log.path = path;
  core::LibSealRuntime runtime(options, std::make_unique<ssm::GitModule>());
  ASSERT_TRUE(runtime.Init().ok());
  services::LibSealTransport transport(&runtime);
  services::GitBackend backend;
  services::HttpServer server(&network, {.address = "git:443"}, &transport,
                              [&](const http::HttpRequest& r) { return backend.Handle(r); });
  ASSERT_TRUE(server.Start().ok());

  tls::TlsConfig client_tls = ClientTls();
  auto client = services::HttpsClient::Connect(&network, "git:443", client_tls);
  ASSERT_TRUE(client.ok());
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(
        (*client)
            ->RoundTrip(services::MakeGitPush("repo", {{"main", "c" + std::to_string(i)}}))
            .ok());
  }
  (*client)->Close();
  server.Stop();

  // An auditor verifies the persisted log with the enclave's public key.
  auto verified = core::AuditLog::VerifyLogFile(path, runtime.log_public_key(),
                                                runtime.logger()->log().counter());
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
  EXPECT_EQ(*verified, 3u);

  // A provider edit of a record is detected.
  std::FILE* f = std::fopen(core::SegmentFilePath(path, 0).c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, core::kSegmentHeaderSize + 30, SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, core::kSegmentHeaderSize + 30, SEEK_SET);
  std::fputc(c ^ 0x40, f);
  std::fclose(f);
  EXPECT_FALSE(core::AuditLog::VerifyLogFile(path, runtime.log_public_key(),
                                             runtime.logger()->log().counter())
                   .ok());
  runtime.Shutdown();
}

// --- ownCloud behind LibSEAL ---

TEST(Integration, OwnCloudLostEditDetected) {
  net::Network network;
  core::LibSealRuntime runtime(MakeLibSealOptions(0), std::make_unique<ssm::OwnCloudModule>());
  ASSERT_TRUE(runtime.Init().ok());
  services::LibSealTransport transport(&runtime);
  services::OwnCloudService owncloud;
  services::HttpServer server(&network, {.address = "owncloud:443"}, &transport,
                              [&](const http::HttpRequest& r) { return owncloud.Handle(r); });
  ASSERT_TRUE(server.Start().ok());

  tls::TlsConfig client_tls = ClientTls();
  auto client = services::HttpsClient::Connect(&network, "owncloud:443", client_tls);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->RoundTrip(services::MakeOwnCloudSync("doc", 0, "alice", 1, "a")).ok());
  ASSERT_TRUE((*client)->RoundTrip(services::MakeOwnCloudSync("doc", 0, "alice", 2, "b")).ok());
  auto clean = (*client)->RoundTrip(services::MakeOwnCloudJoin("doc", "bob", true));
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(CheckHeaderOrEmpty(*clean).rfind("ok", 0), 0u) << CheckHeaderOrEmpty(*clean);

  owncloud.set_attack(services::OwnCloudService::Attack::kDropUpdate);
  auto dirty = (*client)->RoundTrip(services::MakeOwnCloudJoin("doc", "carol", true));
  ASSERT_TRUE(dirty.ok());
  EXPECT_NE(CheckHeaderOrEmpty(*dirty).find("owncloud-update-prefix"), std::string::npos)
      << CheckHeaderOrEmpty(*dirty);
  (*client)->Close();
  server.Stop();
  runtime.Shutdown();
}

// --- Dropbox behind Squid(-like) proxy + LibSEAL ---

TEST(Integration, DropboxThroughAuditingProxy) {
  net::Network network;
  // The origin ("Dropbox"): plain TLS, unreachable for auditing.
  tls::TlsConfig origin_tls;
  origin_tls.certificate = GetPki().server_cert;
  origin_tls.private_key = GetPki().server_key;
  services::PlainTransport origin_transport(origin_tls);
  services::DropboxService dropbox;
  services::HttpServer origin(&network, {.address = "dropbox:443"}, &origin_transport,
                              [&](const http::HttpRequest& r) { return dropbox.Handle(r); });
  ASSERT_TRUE(origin.Start().ok());

  // The local Squid proxy linked against LibSEAL with the Dropbox SSM.
  core::LibSealRuntime runtime(MakeLibSealOptions(0), std::make_unique<ssm::DropboxModule>());
  ASSERT_TRUE(runtime.Init().ok());
  services::LibSealTransport proxy_transport(&runtime);
  services::ProxyServer::Options proxy_options;
  proxy_options.listen_address = "proxy:3128";
  proxy_options.upstream_address = "dropbox:443";
  // Clients' certificate verification towards the origin is disabled in
  // the paper's deployment (§6.4); here the proxy's upstream leg skips it.
  proxy_options.upstream_tls.verify_peer = false;
  services::ProxyServer proxy(&network, proxy_options, &proxy_transport);
  ASSERT_TRUE(proxy.Start().ok());

  tls::TlsConfig client_tls = ClientTls();
  auto client = services::HttpsClient::Connect(&network, "proxy:3128", client_tls);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(
      (*client)
          ->RoundTrip(services::MakeCommitBatch("acct", "h", {{"a.txt", "bl-a", 100}}))
          .ok());
  auto clean = (*client)->RoundTrip(services::MakeListRequest("acct", /*libseal_check=*/true));
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(CheckHeaderOrEmpty(*clean).rfind("ok", 0), 0u) << CheckHeaderOrEmpty(*clean);

  dropbox.set_attack(services::DropboxService::Attack::kCorruptBlocklist);
  auto dirty = (*client)->RoundTrip(services::MakeListRequest("acct", /*libseal_check=*/true));
  ASSERT_TRUE(dirty.ok());
  EXPECT_NE(CheckHeaderOrEmpty(*dirty).find("dropbox-blocklist-soundness"), std::string::npos)
      << CheckHeaderOrEmpty(*dirty);

  (*client)->Close();
  proxy.Stop();
  origin.Stop();
  runtime.Shutdown();
}

// --- attestation-driven trust bootstrap (§6.3 "Bypassing logging") ---

TEST(Integration, ClientVerifiesGenuineLibSealBeforeTrusting) {
  core::LibSealRuntime runtime(MakeLibSealOptions(0), std::make_unique<ssm::GitModule>());
  ASSERT_TRUE(runtime.Init().ok());
  sgx::QuotingEnclave qe;
  sgx::AttestationService ias;
  ias.TrustPlatform(qe.platform_key());

  auto quote = runtime.AttestationQuote(qe);
  ASSERT_TRUE(quote.ok());
  // The client checks (1) the quote is from a real enclave platform, and
  // (2) the TLS certificate it connects to hashes to the quote's report
  // data. A provider terminating TLS with a traditional library cannot
  // produce such a quote.
  ASSERT_TRUE(ias.VerifyQuote(*quote).ok());
  crypto::Sha256Digest cert_hash = crypto::Sha256::Hash(GetPki().server_cert.Encode());
  EXPECT_EQ(ToHex(quote->report_data), ToHex(BytesView(cert_hash.data(), cert_hash.size())));

  // A forged quote for a different certificate fails the binding.
  tls::CertifiedKey rogue =
      tls::MakeSelfSignedCa("rogue", crypto::EcdsaPrivateKey::FromSeed(ToBytes("rogue")));
  crypto::Sha256Digest rogue_hash = crypto::Sha256::Hash(rogue.cert.Encode());
  EXPECT_NE(ToHex(quote->report_data), ToHex(BytesView(rogue_hash.data(), rogue_hash.size())));
  runtime.Shutdown();
}

TEST(Integration, CleanRunReportsMetricsAndNoViolations) {
  // The observability layer must agree with the functional result: a clean
  // end-to-end run moves the transition and logger counters but contributes
  // zero violations. Other tests in this binary run attacked scenarios, so
  // assert on deltas around this run, not on absolute counter values.
  obs::Snapshot before = obs::Registry::Global().TakeSnapshot();

  net::Network network;
  core::LibSealRuntime runtime(MakeLibSealOptions(0), std::make_unique<ssm::GitModule>());
  ASSERT_TRUE(runtime.Init().ok());
  services::LibSealTransport transport(&runtime);
  services::GitBackend backend;
  services::HttpServer server(&network, {.address = "git-obs:443"}, &transport,
                              [&](const http::HttpRequest& r) { return backend.Handle(r); });
  ASSERT_TRUE(server.Start().ok());

  tls::TlsConfig client_tls = ClientTls();
  auto client = services::HttpsClient::Connect(&network, "git-obs:443", client_tls);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (int i = 1; i <= 3; ++i) {
    auto rsp = (*client)->RoundTrip(
        services::MakeGitPush("repo", {{"main", "c" + std::to_string(i)}}));
    ASSERT_TRUE(rsp.ok()) << rsp.status().ToString();
    EXPECT_EQ(rsp->status, 200);
  }
  auto clean = (*client)->RoundTrip(services::MakeGitFetch("repo", /*libseal_check=*/true));
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(CheckHeaderOrEmpty(*clean).rfind("ok", 0), 0u) << CheckHeaderOrEmpty(*clean);
  (*client)->Close();
  server.Stop();
  runtime.Shutdown();

  obs::Snapshot after = obs::Registry::Global().TakeSnapshot();
  EXPECT_EQ(after.counter("logger_violations_found_total") -
                before.counter("logger_violations_found_total"),
            0u);
  EXPECT_GT(after.counter("sgx_ecalls_total"), before.counter("sgx_ecalls_total"));
  EXPECT_GT(after.counter("sgx_transitions_total"), before.counter("sgx_transitions_total"));
  EXPECT_GT(after.counter("asyncall_ecalls_total"), before.counter("asyncall_ecalls_total"));
  EXPECT_GT(after.counter("tls_handshakes_completed_total"),
            before.counter("tls_handshakes_completed_total"));
  EXPECT_GT(after.CounterFamilyTotal("logger_checks_total") -
                before.CounterFamilyTotal("logger_checks_total"),
            0u);
}

}  // namespace
}  // namespace seal
