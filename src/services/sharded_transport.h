// Shard-affine connection routing for a core::ShardSet (ROADMAP item 2).
//
// A ShardedTransport fronts N per-shard LibSealTransports behind the
// ordinary ServerTransport interface, so HttpServer/ProxyServer need no
// changes: Wrap() returns a connection whose Handshake() first PEEKS at the
// client's initial bytes, picks a shard, pushes the untouched bytes back
// (net::Pipe::Unread) and then runs the real handshake on the chosen
// shard's enclave.
//
// Routing policy — why the session id, not the connection id: connection
// ids are per-accept and carry no client identity, so hashing them cannot
// keep a RECONNECTING client on its shard. The TLS session id can — a
// resuming client offers its old id in the ClientHello, in plaintext, and
// the server-side session cache holding that session's master secret is
// enclave-resident PER SHARD, so landing the resumption on any other shard
// silently degrades it to a full handshake. The id itself cannot be
// shard-tagged (both sides derive it independently from the master
// secret), so the router LEARNS the session->shard map as handshakes
// complete, exactly like a session-aware L4 balancer: offered id known →
// original shard; unknown → stable hash of the id; no id offered (fresh
// client) → round-robin. Everything the router touches is already
// plaintext on the wire, so the map leaks nothing. See DESIGN.md §3i.
#ifndef SRC_SERVICES_SHARDED_TRANSPORT_H_
#define SRC_SERVICES_SHARDED_TRANSPORT_H_

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "src/core/shard.h"
#include "src/services/transport.h"

namespace seal::services {

// The learned session->shard map. Sharded-mutex buckets: every handshake
// does one Learn and every resumption one Lookup, concurrently across
// acceptor threads.
class ShardRouter {
 public:
  void Learn(BytesView session_id, uint32_t shard);
  std::optional<uint32_t> Lookup(BytesView session_id) const;
  size_t size() const;

 private:
  struct alignas(64) Bucket {
    mutable std::mutex mutex;
    std::map<Bytes, uint32_t> sessions;
  };
  static constexpr size_t kBuckets = 16;
  static size_t BucketFor(BytesView session_id);
  std::array<Bucket, kBuckets> buckets_;
};

class ShardedTransport : public ServerTransport {
 public:
  // `shards` must outlive the transport and be Init()ed.
  explicit ShardedTransport(core::ShardSet* shards);

  std::unique_ptr<ServerConnection> Wrap(net::StreamPtr stream) override;

  ShardRouter& router() { return router_; }
  core::ShardSet& shards() { return *shards_; }

  // The shard a ClientHello offering `session_id` would be routed to right
  // now (learned map first, stable hash otherwise). Exposed for tests.
  uint32_t RouteFor(BytesView session_id) const;

 private:
  friend class ShardedConnection;
  uint32_t NextRoundRobin();

  core::ShardSet* shards_;
  std::vector<std::unique_ptr<LibSealTransport>> transports_;
  ShardRouter router_;
  std::atomic<uint64_t> round_robin_{0};
};

// Parses the session id a TLS ClientHello offers out of `prefix` (raw
// record-layer bytes from the start of a connection). Returns nullopt when
// the prefix is not a complete-enough ClientHello; an empty Bytes when the
// hello offers no session (a fresh client). Exposed for testing.
std::optional<Bytes> ParseClientHelloSessionId(BytesView prefix);

}  // namespace seal::services

#endif  // SRC_SERVICES_SHARDED_TRANSPORT_H_
