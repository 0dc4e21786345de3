#ifndef DBSHERLOCK_SERVICE_TENANT_MANAGER_H_
#define DBSHERLOCK_SERVICE_TENANT_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/streaming_monitor.h"
#include "store/tenant_store.h"
#include "tsdata/dataset.h"
#include "tsdata/schema.h"

namespace dbsherlock::service {

/// One row accepted from a tenant but not yet run through its monitor.
struct PendingRow {
  double timestamp = 0.0;
  std::vector<tsdata::Cell> cells;
};

/// One completed background diagnosis for a tenant.
struct TenantDiagnosis {
  tsdata::TimeRange region;
  core::Explanation explanation;
  double latency_us = 0.0;  // detector-alert to diagnosis-finished
};

/// Per-tenant pipeline state. Locking discipline (service-wide):
///
///   `mu` guards the ingest side: queue, scheduled, in_process, the acked /
///   processed / shed counters, the monitor counts, and `evicted`.
///   `drained` signals queue transitions for Flush.
///
///   `monitor` is NOT guarded by a lock; it is owned by whichever worker
///   holds the `scheduled` flag (the single-drainer invariant: exactly one
///   thread drains a tenant's queue at a time, so monitor access is
///   naturally serialized and TSan-clean via the mu hand-off).
///
///   `diag_mu` guards the diagnosis side: pending jobs, in-flight count,
///   dedup watermark, and completed diagnoses. `diag_done` signals
///   completions for Flush.
///
/// Order: a thread may hold at most one of {manager map lock, mu, diag_mu}
/// except two documented edges: the manager's map lock -> mu/diag_mu
/// (eviction idle check), and the service's dispatch-queue lock -> diag_mu
/// (job scan) — never the reverse of either.
struct Tenant {
  explicit Tenant(std::string name_in) : name(std::move(name_in)) {}

  const std::string name;
  tsdata::Schema schema;

  std::mutex mu;
  std::condition_variable drained;
  std::deque<PendingRow> queue;
  bool scheduled = false;   // a worker owns (or is about to own) the drain
  size_t in_process = 0;    // rows taken from queue, not yet appended
  uint64_t acked = 0;       // rows accepted into the queue (wire-acked)
  uint64_t processed = 0;   // rows run through the monitor
  uint64_t shed = 0;        // rows refused with RETRY_AFTER
  /// The monitor's drop and alert counts, copied by the drain worker at
  /// each batch end so STATS can read them under `mu` while the monitor
  /// itself stays single-drainer. They die with the tenant.
  uint64_t late_dropped = 0;
  uint64_t duplicate_dropped = 0;
  uint64_t alerts = 0;
  /// Highest client idempotency seq applied (APPENDSEQ); 0 = none yet.
  /// Guarded by mu. Per server incarnation — not persisted: across a
  /// restart, duplicate replays are dropped by the store's
  /// strictly-increasing-timestamp rule instead.
  uint64_t last_client_seq = 0;
  bool evicted = false;     // tombstone: manager dropped it; re-HELLO

  /// Created on HELLO with diagnose_inline = false. Single-drainer access
  /// only (see above).
  std::unique_ptr<core::StreamingMonitor> monitor;

  /// Durable telemetry history (nullptr when the service runs without a
  /// --store-dir). Internally synchronized: the drain worker appends,
  /// any thread may Scan — no Tenant lock is involved.
  std::unique_ptr<store::TenantStore> history;

  std::mutex diag_mu;
  std::condition_variable diag_done;
  size_t diag_pending = 0;       // jobs queued for this tenant
  size_t diag_in_flight = 0;     // jobs running on the worker pool
  double diag_covered_until = -1e300;  // dedup watermark (region end)
  uint64_t diag_deduped = 0;     // alerts skipped as overlapping
  uint64_t diag_completed = 0;
  std::vector<TenantDiagnosis> diagnoses;

  std::atomic<uint64_t> last_used{0};  // manager LRU tick
};

/// Owns the tenant map: one StreamingMonitor pipeline per tenant, created
/// on first HELLO and evicted least-recently-used — but only when idle —
/// once the cap is reached. Thread-safe.
class TenantManager {
 public:
  struct Options {
    /// Soft cap on live tenants. On overflow the least-recently-used
    /// *idle* tenant (empty queue, no drain scheduled, no diagnosis in
    /// flight) is evicted; if every tenant is busy the cap is allowed to
    /// overshoot rather than tearing down a pipeline mid-flight.
    size_t max_tenants = 64;
    /// Monitor shape applied to every tenant's pipeline.
    core::StreamingMonitor::Options monitor;
    /// History store template. `store.dir` is the ROOT directory; each
    /// tenant gets `<root>/<name>`. Empty dir = history disabled (the
    /// pre-store in-memory-only behavior).
    store::TenantStore::Options store;
  };

  /// Per-tenant retention override carried by HELLO's RETAIN clause.
  struct Retention {
    uint64_t bytes = 0;      // 0 = unlimited
    double age_sec = 0.0;    // 0 = unlimited
  };

  explicit TenantManager(Options options);

  /// Finds or creates the tenant. Creating builds its monitor from the
  /// manager's options (diagnosis forced out-of-band), opens its history
  /// store when one is configured — recovering sealed segments and
  /// re-hydrating the monitor window from the stored tail — and arms
  /// `retain` if given (a re-HELLO with a RETAIN clause re-arms it). A
  /// second HELLO with a different schema fails with FailedPrecondition;
  /// an identical one is an idempotent no-op.
  common::Result<std::shared_ptr<Tenant>> Hello(
      const std::string& name, const tsdata::Schema& schema,
      const std::optional<Retention>& retain = std::nullopt);

  /// The tenant, or NotFound. Bumps its LRU tick.
  common::Result<std::shared_ptr<Tenant>> Find(const std::string& name);

  /// Live tenants, sorted by name (STATS, FlushAll, Stop). Unlike Find it
  /// leaves the LRU order alone: listing is not a use.
  std::vector<std::shared_ptr<Tenant>> Live() const;

  size_t size() const;
  uint64_t evictions() const { return evictions_.load(); }

 private:
  /// Called with map_mu_ held; evicts idle LRU tenants down to the cap.
  void EvictLocked();

  Options options_;
  mutable std::mutex map_mu_;
  std::map<std::string, std::shared_ptr<Tenant>> tenants_;
  std::atomic<uint64_t> clock_{1};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace dbsherlock::service

#endif  // DBSHERLOCK_SERVICE_TENANT_MANAGER_H_
