#ifndef DBSHERLOCK_QUERY_EXECUTOR_H_
#define DBSHERLOCK_QUERY_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/anomaly_detector.h"
#include "core/explainer.h"
#include "query/compiler.h"
#include "query/report.h"
#include "store/tenant_store.h"
#include "tsdata/schema.h"

namespace dbsherlock::query {

/// Budgets for query execution. Defaults mirror the service's
/// DIAGNOSE_RANGE budgets; the service threads its configured
/// --max-range-rows, context factor, scan parallelism and detector
/// settings through here.
struct ExecutorOptions {
  /// Row budget for the discovery scan and for each finding's context
  /// window (the --max-range-rows contract). 0 = unlimited.
  size_t max_rows = 500000;
  /// A finding's diagnosis window extends this multiple of the region
  /// length on each side, so the explainer sees a normal baseline.
  double range_context_factor = 8.0;
  /// Scan decode parallelism (0 = hardware lanes).
  size_t parallelism = 0;
  /// The detector that refines each finding's region.
  core::AnomalyDetectorOptions detector;
};

/// What the executor runs against. `rank` lets the service rank causes
/// with its durable fleet-wide model store; when null the explainer's own
/// repository is used (standalone/test mode).
struct ExecutionContext {
  const tsdata::Schema* schema = nullptr;       // required
  const store::TenantStore* history = nullptr;  // required except DESCRIBE
  const core::Explainer* explainer = nullptr;   // required except DESCRIBE
  std::function<std::vector<core::RankedCause>(
      const tsdata::Dataset& window, const tsdata::DiagnosisRegions& regions)>
      rank;
  /// DESCRIBE extras the executor cannot see on its own.
  uint64_t models = 0;
  uint64_t diagnoses = 0;
};

/// Runs a compiled statement: discovery scan (zone-map pushdown) → region
/// merge → per-finding context window → detector refinement → explainer +
/// cause ranking → report assembly. Budget overruns become notes in the
/// report, not errors, except a discovery scan that cannot run at all.
common::Result<IncidentReport> Execute(const CompiledQuery& query,
                                       const ExecutionContext& context,
                                       const ExecutorOptions& options);

}  // namespace dbsherlock::query

#endif  // DBSHERLOCK_QUERY_EXECUTOR_H_
