#ifndef DBSHERLOCK_FLEET_FLEET_REPLAY_H_
#define DBSHERLOCK_FLEET_FLEET_REPLAY_H_

#include <cstdint>

#include "common/status.h"

namespace dbsherlock::fleet {

/// Many-tenant wire replay against a router (or a single shard): the
/// shard-kill e2e test's writer. `client_threads` connections to
/// 127.0.0.1:`port` cycle over `tenants` tenants (t0, t1, ...)
/// round-robin, each sending HELLO then `rows_per_tenant` four-attribute
/// APPENDSEQ rows, honoring RETRY_AFTER backpressure with jittered backoff
/// and riding out dropped connections / dead shards with the idempotent
/// resume protocol: reconnect, re-HELLO (the router re-places the tenant
/// if its shard died), and resend the same seq — the ack replays if the
/// row already landed, so no acked row is ever lost or double-ingested.
struct FleetReplayOptions {
  int port = 0;
  size_t tenants = 1000;
  size_t rows_per_tenant = 10;
  size_t client_threads = 16;
  /// Per-request client deadline (detects half-dead shards).
  int deadline_ms = 10000;
};

struct FleetReplayResult {
  uint64_t rows_acked = 0;
  uint64_t rows_failed = 0;     // rows abandoned after max recoveries
  uint64_t rehellos = 0;        // failover re-HELLOs after an ERR
};

common::Result<FleetReplayResult> RunFleetReplay(
    const FleetReplayOptions& options);

}  // namespace dbsherlock::fleet

#endif  // DBSHERLOCK_FLEET_FLEET_REPLAY_H_
