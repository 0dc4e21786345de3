#ifndef DBSHERLOCK_EVAL_SERVICE_REPLAY_H_
#define DBSHERLOCK_EVAL_SERVICE_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "service/model_store.h"

namespace dbsherlock::eval {

/// One tenant's outcome.
struct TenantReplayOutcome {
  std::string tenant;
  std::string expected_cause;
  std::string top_cause;       // empty when no diagnosis was produced
  bool top1_correct = false;
  bool region_overlaps = false;  // reported region hits the ground truth
  size_t rows_sent = 0;
  size_t diagnoses = 0;
};

struct ServiceReplayResult {
  uint64_t rows_acked = 0;
  size_t diagnoses_total = 0;
  size_t models_stored = 0;
  std::vector<TenantReplayOutcome> tenants;
};

/// End-to-end exerciser for dbsherlockd: boots a Service (4 ingest and 2
/// diagnosis workers) + TCP Server on an ephemeral port, teaches two
/// pre-trained causal models per anomaly class over the wire (TEACH merges
/// them, the paper's Figure 8 merged models), then drives 8 simulated
/// tenants concurrently through the real socket path — tenant i streams
/// the i-th anomaly class, a 40 s anomaly after 300 s of normal load
/// (well under the detector's 20% small-cluster cutoff), seed 20260805 —
/// and reports, per tenant, whether its anomaly was diagnosed with the
/// correct cause ranked first over a region that overlaps the injected
/// one.
/// `store` is the shared durable model store the service ranks against
/// (the taught models land here). Fails on infrastructure errors (bind,
/// connect, teach, a row shed past its retry budget); a wrong diagnosis
/// is reported in the result, not as a Status.
common::Result<ServiceReplayResult> RunServiceReplay(
    service::DurableModelStore* store);

}  // namespace dbsherlock::eval

#endif  // DBSHERLOCK_EVAL_SERVICE_REPLAY_H_
