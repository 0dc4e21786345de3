#ifndef DBSHERLOCK_FLEET_ROUTER_H_
#define DBSHERLOCK_FLEET_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "common/status.h"
#include "fleet/hash_ring.h"
#include "service/client.h"
#include "service/server.h"

namespace dbsherlock::fleet {

/// The fleet front door (`dbsherlockd route`, DESIGN.md §15): a thin
/// stateless-ish proxy that speaks the dbsherlockd wire protocol on one
/// port and spreads tenants across N shard daemons by consistent hashing.
///
/// Routing rules:
///   - Tenant verbs (HELLO/APPEND/FLUSH/DIAGNOSES/QUERY/DIAGNOSE_RANGE)
///     go to the tenant's shard and the shard's response line is relayed
///     verbatim (CallRaw — no re-serialization).
///   - A tenant's shard is chosen at HELLO time: the ring owner, skipping
///     shards currently marked down. The assignment is sticky (the
///     tenant's history lives there) until the shard dies and a HELLO
///     re-arrives — failover is explicit, through the client's existing
///     re-HELLO + APPENDSEQ resume protocol, because transparently
///     redirecting mid-stream appends would silently drop the dead
///     shard's acked-but-unsealed tail.
///   - Idempotent requests (HELLO, APPENDSEQ, FLUSH, reads) are retried
///     on upstream failure with the client library's jittered backoff;
///     non-idempotent ones (plain APPEND, TEACH after partial send)
///     surface ERR immediately so the writer decides.
///   - STATS/HEALTH/MODELS fan out to every shard and come back merged;
///     PING/QUIT are answered by the router itself.
///   - TEACH routes by hash of the model's cause; MODELSYNC replication
///     between shards then spreads the model fleet-wide.
///
/// A shard that fails a request is marked down for `down_cooldown_ms`
/// (circuit breaker); HELLOs during the cooldown assign to the next ring
/// owner, and the first use after the cooldown probes the shard again.
class Router {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    int port = 0;  // 0 binds an ephemeral port
    /// Shard addresses as "host:port", in ring order. Required non-empty.
    std::vector<std::string> shards;
    size_t vnodes_per_shard = 64;
    size_t max_connections = 256;
    size_t max_line_bytes = 1 << 20;
    int idle_timeout_ms = 0;
    /// Upstream per-request deadline / connect timeout.
    int upstream_deadline_ms = 5000;
    int upstream_connect_timeout_ms = 1000;
    /// Attempts for an idempotent request before giving up (>= 1).
    int max_upstream_attempts = 3;
    /// Backoff between idempotent retries (jittered, capped).
    service::RetryPolicy retry;
    /// How long a failed shard stays out of HELLO placement.
    int down_cooldown_ms = 2000;
    /// Idle upstream connections kept pooled per shard.
    size_t pool_per_shard = 8;
  };

  /// Per-shard proxy accounting (also exported via common::metrics as
  /// router.shard.<addr>.{requests,retries,failures}).
  struct ShardStats {
    std::string address;
    uint64_t requests = 0;
    uint64_t retries = 0;
    uint64_t failures = 0;
    bool down = false;
  };

  static common::Result<std::unique_ptr<Router>> Start(Options options);

  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  int port() const { return server_->port(); }

  void Stop();

  std::vector<ShardStats> shard_stats() const;
  /// The shard index a tenant is currently assigned to, or -1.
  int AssignedShard(const std::string& tenant) const;
  size_t num_shards() const { return shards_.size(); }

 private:
  struct Shard {
    std::string address;
    std::string host;
    int port = 0;
    /// Steady-clock microseconds until which the shard is considered
    /// down; 0 = up.
    std::atomic<int64_t> down_until_us{0};
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> retries{0};
    std::atomic<uint64_t> failures{0};
    /// Registry-owned counters (router.shard.<addr>.*), cached here so
    /// the proxy hot path never takes the registry lock.
    common::Counter* requests_metric = nullptr;
    common::Counter* retries_metric = nullptr;
    common::Counter* failures_metric = nullptr;
    std::mutex pool_mu;
    std::vector<std::unique_ptr<service::Client>> pool;
  };

  explicit Router(Options options);

  std::string HandleLine(const std::string& line, bool* quit);
  /// Tenant verb routing: sticky assignment, HELLO-time failover.
  size_t AssignShard(const std::string& tenant, bool is_hello);
  /// Proxies `line` to shard `idx`; retries (and, for HELLO, fails over
  /// across the ring) when `idempotent`.
  std::string Proxy(size_t idx, const std::string& line, bool idempotent,
                    const std::string& failover_tenant);
  common::Result<std::unique_ptr<service::Client>> Acquire(Shard& shard);
  void Release(Shard& shard, std::unique_ptr<service::Client> client);
  bool IsDown(const Shard& shard) const;
  void MarkDown(Shard& shard);
  void MarkUp(Shard& shard);
  std::vector<bool> DownVector() const;
  double NextUniform();

  std::string MergedStats();
  std::string MergedHealth();
  std::string MergedModels();

  Options options_;
  HashRing ring_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex assign_mu_;
  std::unordered_map<std::string, size_t> tenant_shard_;

  std::mutex rng_mu_;
  common::Pcg32 rng_;

  /// Last, so it is destroyed first: its connection threads use every
  /// member above.
  std::unique_ptr<service::Server> server_;
};

}  // namespace dbsherlock::fleet

#endif  // DBSHERLOCK_FLEET_ROUTER_H_
