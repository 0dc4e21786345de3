#ifndef DBSHERLOCK_SERVICE_SERVICE_H_
#define DBSHERLOCK_SERVICE_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "core/explainer.h"
#include "service/model_store.h"
#include "service/tenant_manager.h"

namespace dbsherlock::service {

/// The dbsherlockd engine, transport-free: multi-tenant ingestion with
/// bounded queues and explicit backpressure, background anomaly diagnosis
/// on a worker pool, and a shared durable causal-model store. The TCP
/// frontend (server.h) and in-process embedders (tests, the replay bench)
/// both talk to this class.
///
/// Data path: Append validates against the tenant schema and enqueues into
/// the tenant's bounded queue (full queue => not acked, RETRY_AFTER).
/// Ingest workers drain one tenant at a time (single-drainer invariant:
/// the tenant's `scheduled` flag hands monitor ownership to exactly one
/// worker), pushing rows through its StreamingMonitor. A detector alert
/// snapshots the window and enqueues a diagnosis job; diagnosis workers
/// run detector-region refinement + Explainer + durable-store ranking,
/// deduplicating overlapping regions and capping per-tenant concurrency.
class Service {
 public:
  struct Options {
    TenantManager::Options tenants;
    /// Worker threads draining tenant ingest queues.
    size_t ingest_workers = 2;
    /// Worker threads running diagnosis jobs.
    size_t diagnosis_workers = 2;
    /// Max diagnosis jobs in flight per tenant (overlap dedup usually
    /// keeps this moot; the cap bounds pathological alert storms).
    size_t per_tenant_diagnosis_cap = 1;
    /// Bounded ingest queue per tenant; a full queue sheds with
    /// RETRY_AFTER instead of buffering unboundedly.
    size_t queue_capacity = 1024;
    /// Delay clients are told to wait when shed.
    int retry_after_ms = 20;
    /// Rows a drain takes from the queue per monitor pass.
    size_t ingest_batch = 64;
    /// Diagnosis configuration (predicate generation, domain knowledge,
    /// detector shape for region refinement). Ranking uses the durable
    /// store, not the explainer's own repository.
    core::Explainer::Options explainer;
    /// The paper's lambda for ranked causes.
    double min_confidence = 20.0;
    /// Shared durable model store. Required; not owned.
    DurableModelStore* store = nullptr;
    /// Row cap on one QUERY response (the wire is line-oriented; a huge
    /// range comes back truncated with "truncated":true).
    size_t max_query_rows = 5000;
    /// Row cap on the DIAGNOSE_RANGE context window (region + padding).
    /// A window that would exceed this many stored rows is refused with
    /// ResourceExhausted instead of inflating it all into memory — one
    /// hostile range must not OOM the daemon. 0 = unlimited.
    size_t max_range_rows = 500000;
    /// DIAGNOSE_RANGE scans a context window this many region-lengths on
    /// each side of [t0,t1) so the explainer sees normal baseline rows
    /// (the paper's "rest of the window is normal" convention).
    double range_context_factor = 8.0;
    /// Test hook: microseconds of artificial work per appended row, to
    /// force a slow consumer for backpressure tests.
    int process_delay_us = 0;
  };

  /// Outcome of one Append: either acked (with the tenant's running ack
  /// sequence) or shed with a retry delay. Queueing errors (unknown
  /// tenant, schema mismatch) surface as the Result's Status instead.
  struct AppendOutcome {
    bool accepted = false;
    bool replayed = false;   // duplicate client_seq; acked, not re-ingested
    uint64_t seq = 0;        // tenant-local ack sequence when accepted
    int retry_after_ms = 0;  // when shed
  };

  /// Coarse service health for the HEALTH verb. `kDegraded` means a
  /// durability path (model-store WAL or a tenant history store) is
  /// failing: the daemon stays up and keeps diagnosing, but writes on the
  /// failing path are being lost or refused. The state clears itself when
  /// the same path succeeds again. `kDraining` is set once Stop begins.
  enum class HealthState { kOk, kDegraded, kDraining };

  explicit Service(Options options);
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Registers (or idempotently re-greets) a tenant. `retain` carries
  /// HELLO's optional RETAIN clause through to the tenant's history store.
  common::Status Hello(
      const std::string& tenant, const tsdata::Schema& schema,
      const std::optional<TenantManager::Retention>& retain = std::nullopt);

  /// Enqueues one row for `tenant`. Cells must match the tenant schema
  /// (checked here, before acking). Never blocks on a full queue.
  /// `client_seq` (APPENDSEQ) makes the call idempotent: a seq at or
  /// below the highest already applied is acked as `replayed` without
  /// enqueueing the row again.
  common::Result<AppendOutcome> Append(
      const std::string& tenant, double timestamp,
      std::vector<tsdata::Cell> cells,
      std::optional<uint64_t> client_seq = std::nullopt);

  /// Adds a causal model to the shared durable store (the TEACH verb /
  /// pre-trained models).
  common::Status Teach(const core::CausalModel& model);

  /// Blocks until the tenant's queue is drained through the monitor and
  /// every enqueued diagnosis for it has completed.
  common::Status Flush(const std::string& tenant);

  /// Flush for every live tenant.
  common::Status FlushAll();

  /// Completed diagnoses for a tenant, as JSON (DIAGNOSES verb):
  /// [{"region":{start,end},"causes":[{cause,confidence,action}],
  ///   "predicates":"...","latency_us":n}].
  common::Result<common::JsonValue> DiagnosesJson(const std::string& tenant);

  /// History rows in [t0, t1) from the tenant's store (QUERY verb):
  /// {"tenant","t0","t1","rows",("truncated",)"csv","scan":{...}}.
  /// `bounds` (the WHERE clause) filters rows and prunes segments via
  /// zone maps. Fails with FailedPrecondition when the service runs
  /// without a store directory.
  common::Result<common::JsonValue> QueryJson(
      const std::string& tenant, double t0, double t1,
      const std::vector<store::AttributeBound>& bounds = {});

  /// Retrospective diagnosis of a user-designated abnormal region [t0, t1)
  /// (DIAGNOSE_RANGE verb) — the paper's workflow, but over the durable
  /// store, so the region may long have left the sliding window:
  /// {"region":{start,end},"rows","causes":[...],"predicates"}.
  common::Result<common::JsonValue> DiagnoseRangeJson(
      const std::string& tenant, double t0, double t1);

  /// Runs one DQL statement (EXPLAINQ verb, DESIGN.md §16): parse →
  /// compile (percentile thresholds resolved against the tenant's durable
  /// history via zone-map bracketing, WHERE lowered onto pushdown bounds)
  /// → execute under the --max-range-rows budget → incident report. The
  /// returned JSON is the report object plus a "markdown" rendering;
  /// parse/compile errors carry multi-line caret diagnostics in their
  /// Status message (the wire layer JSON-encodes those on ERR lines).
  common::Result<common::JsonValue> ExplainQueryJson(
      const std::string& tenant, const std::string& query_text);

  /// Service-wide counters (STATS verb).
  common::JsonValue StatsJson() const;

  /// Degraded-mode report (HEALTH verb):
  /// {"state":"ok|degraded|draining","reason":"...","degraded_entries":n}.
  common::JsonValue HealthJson() const;

  HealthState health() const;

  /// The shared store's repository as model_io JSON (MODELS verb).
  common::JsonValue ModelsJson() const;

  /// Replication pull response (MODELSYNC verb, DESIGN.md §15):
  /// {"last_seq":N,"crc":C,"models":[...]}. `models` holds the full
  /// corpus when the store has advanced past `since_seq` and is empty
  /// when the caller is current; `crc` is common::Crc32 over the compact
  /// dump of the models array so a torn transfer is detected before apply.
  common::JsonValue ModelSyncJson(uint64_t since_seq) const;

  /// Stops accepting, drains acked rows and in-flight diagnoses, joins
  /// workers. Idempotent; the destructor calls it.
  void Stop();

  TenantManager& tenants() { return tenants_; }
  const Options& options() const { return options_; }

  // Shed/ack accounting across all tenants (tests, STATS).
  uint64_t total_acked() const { return total_acked_.load(); }
  uint64_t total_shed() const { return total_shed_.load(); }
  uint64_t total_diagnoses() const { return total_diagnoses_.load(); }

 private:
  struct DiagnosisJob {
    std::shared_ptr<Tenant> tenant;
    tsdata::TimeRange region;
    double raised_at = 0.0;
    double alert_us = 0.0;      // when the alert fired (Tracer clock)
    tsdata::Dataset window;     // snapshot taken by the drain worker
  };

  void IngestWorker();
  void DiagnosisWorker();
  /// Durability-path outcome hooks behind the health state machine: an
  /// error flips ok -> degraded with `reason`; a success on the same kind
  /// of path flips degraded -> ok. Draining is terminal.
  void NoteDurabilityError(const char* path, const common::Status& status);
  void NoteDurabilityOk();
  /// Drains `tenant`'s queue (the caller owns its `scheduled` flag).
  void DrainTenant(const std::shared_ptr<Tenant>& tenant);
  void EnqueueDiagnosis(const std::shared_ptr<Tenant>& tenant,
                        const core::StreamingMonitor::Alert& alert,
                        const tsdata::Dataset& window);
  void RunDiagnosis(DiagnosisJob job);

  Options options_;
  TenantManager tenants_;
  core::Explainer explainer_;

  std::atomic<bool> accepting_{true};
  std::atomic<bool> stopped_{false};

  // Tenants with non-empty queues awaiting a drain worker. A tenant is
  // here iff its `scheduled` flag is set (whoever flips it false->true
  // pushes; the drain worker clears it when the queue runs dry).
  std::mutex ready_mu_;
  std::condition_variable ready_cv_;
  std::deque<std::shared_ptr<Tenant>> ready_;
  bool stop_ingest_ = false;

  // Diagnosis job queue. Lock order: diag_queue_mu_ -> tenant->diag_mu.
  std::mutex diag_queue_mu_;
  std::condition_variable diag_cv_;
  std::deque<DiagnosisJob> diag_queue_;
  bool stop_diag_ = false;

  std::vector<std::thread> ingest_threads_;
  std::vector<std::thread> diag_threads_;

  std::atomic<uint64_t> total_acked_{0};
  std::atomic<uint64_t> total_shed_{0};
  std::atomic<uint64_t> total_alerts_{0};
  std::atomic<uint64_t> total_diagnoses_{0};
  std::atomic<uint64_t> total_deduped_{0};
  std::atomic<uint64_t> total_replayed_{0};

  mutable std::mutex health_mu_;
  HealthState health_state_ = HealthState::kOk;
  std::string health_reason_;
  uint64_t degraded_entries_ = 0;  // ok -> degraded transitions
};

}  // namespace dbsherlock::service

#endif  // DBSHERLOCK_SERVICE_SERVICE_H_
