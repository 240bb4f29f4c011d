// Dispute resolution demo: the persisted audit log as non-repudiable
// evidence. Shows (1) an honest log verifying, (2) a provider edit being
// caught by the hash chain + signature, and (3) a rollback to an older --
// validly signed! -- log being caught by the ROTE monotonic counter.
//
// Build: cmake --build build && ./build/examples/log_verification
#include <cstdio>
#include <string>

#include "src/core/audit_log.h"

using namespace seal;

namespace {

void CopyFile(const std::string& from, const std::string& to) {
  std::FILE* in = std::fopen(from.c_str(), "rb");
  std::FILE* out = std::fopen(to.c_str(), "wb");
  if (in == nullptr || out == nullptr) {
    return;
  }
  int c;
  while ((c = std::fgetc(in)) != EOF) {
    std::fputc(c, out);
  }
  std::fclose(in);
  std::fclose(out);
}

void ShowVerdict(const char* scenario, const Result<size_t>& verdict) {
  if (verdict.ok()) {
    std::printf("%-42s VERIFIED (%zu entries)\n", scenario, *verdict);
  } else {
    std::printf("%-42s REJECTED: %s\n", scenario, verdict.status().message().c_str());
  }
}

}  // namespace

int main() {
  std::printf("== Audit-log verification & dispute resolution ==\n\n");
  const std::string path = "/tmp/libseal_example_audit.log";

  // The enclave's log key. In deployment its public half is published via
  // remote attestation; here we just hold both sides.
  crypto::EcdsaPrivateKey enclave_key = crypto::EcdsaPrivateKey::FromSeed(ToBytes("enclave"));

  core::AuditLogOptions options;
  options.mode = core::PersistenceMode::kDisk;
  options.path = path;
  options.counter_options.inject_latency = false;
  core::AuditLog log(options, enclave_key);
  (void)log.ExecuteSchema({"CREATE TABLE updates(time, repo, branch, cid, type)"});

  auto append = [&](int64_t t, const std::string& cid) {
    (void)log.Append("updates", {db::Value(t), db::Value(std::string("repo")),
                                 db::Value(std::string("main")), db::Value(cid),
                                 db::Value(std::string("update"))});
    (void)log.CommitHead();
  };
  append(1, "commit-1");
  append(2, "commit-2");

  // Scenario 1: honest log.
  ShowVerdict("honest log:", core::AuditLog::VerifyLogFile(path, enclave_key.public_key(),
                                                           log.counter()));

  // The entries live in segment files next to the signed head; this short
  // log fits in segment 0. Keep a (validly signed) copy of it for the
  // rollback scenario.
  const std::string segment = core::SegmentFilePath(path, 0);
  CopyFile(segment, path + ".old");
  CopyFile(path + ".sig", path + ".old.sig");

  append(3, "commit-3");

  // Scenario 2: the provider edits an entry in place.
  CopyFile(segment, path + ".bak");
  std::FILE* f = std::fopen(segment.c_str(), "rb+");
  std::fseek(f, core::kSegmentHeaderSize + 60, SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, core::kSegmentHeaderSize + 60, SEEK_SET);
  std::fputc(c ^ 0x01, f);
  std::fclose(f);
  ShowVerdict("provider-edited log:",
              core::AuditLog::VerifyLogFile(path, enclave_key.public_key(), log.counter()));
  CopyFile(path + ".bak", segment);  // restore

  // Scenario 3: the provider swaps in the OLD log + OLD signature. Every
  // byte of it is authentic -- but the distributed counter has moved on.
  CopyFile(path + ".old", segment);
  CopyFile(path + ".old.sig", path + ".sig");
  ShowVerdict("rolled-back (but validly signed) log:",
              core::AuditLog::VerifyLogFile(path, enclave_key.public_key(), log.counter()));

  std::printf("\na provider can neither FORGE log entries (signature), MODIFY them (hash\n"
              "chain) nor PRESENT OLD STATE (monotonic counter): what the log says, the\n"
              "service did.\n");
  return 0;
}
