// Continuous monitoring: telemetry streams into a StreamingMonitor row by
// row (as DBSeer's collectors would deliver it); the monitor watches a
// sliding window, detects the I/O storm as it happens, and raises an alert
// that already carries the diagnosis — because the causal model from last
// month's identical incident was preloaded.
//
//   ./build/examples/live_monitoring

#include <cstdio>

#include "core/streaming_monitor.h"
#include "simulator/dataset_gen.h"
#include "simulator/metric_schema.h"

int main() {
  using namespace dbsherlock;

  // --- Last month: an I/O saturation incident was diagnosed and taught ---
  simulator::DatasetGenOptions options;
  options.seed = 101;
  simulator::GeneratedDataset history = simulator::GenerateAnomalyDataset(
      options, simulator::AnomalyKind::kIoSaturation, 60.0);
  core::Explainer teacher;
  core::Explanation past = teacher.Diagnose(history.data, history.regions);
  teacher.AcceptDiagnosis("I/O Saturation", past,
                          "kill the runaway backup job on the data volume");

  // --- Today: live telemetry with a fresh I/O storm at t=400 -------------
  simulator::DatasetGenOptions today = options;
  today.seed = 102;
  today.normal_duration_sec = 600.0;
  simulator::GeneratedDataset live = simulator::GenerateAnomalyDataset(
      today, simulator::AnomalyKind::kIoSaturation, 60.0);

  core::StreamingMonitor monitor(live.data.schema(), {});
  for (const core::CausalModel& model : teacher.repository().models()) {
    monitor.explainer().repository().AddUnmerged(model);
  }

  std::printf("Streaming %zu seconds of telemetry into the monitor "
              "(true anomaly at [%.0f, %.0f))...\n",
              live.data.num_rows(), live.regions.abnormal.ranges()[0].start,
              live.regions.abnormal.ranges()[0].end);

  size_t alerts = 0;
  std::vector<tsdata::Cell> cells;
  for (size_t row = 0; row < live.data.num_rows(); ++row) {
    live.data.RowCells(row, &cells);
    auto alert = monitor.Append(live.data.timestamp(row), cells);
    if (!alert.has_value()) continue;
    ++alerts;
    std::printf("\n*** ALERT #%zu at t=%.0f: anomaly in [%.0f, %.0f)\n",
                alerts, alert->raised_at, alert->region.start,
                alert->region.end);
    if (alert->explanation.causes.empty()) {
      // No stored model clears the confidence bar: likely a workload
      // fluctuation or something new — triage manually.
      std::printf("    no known cause matches; raw predicates only\n");
    }
    for (const auto& cause : alert->explanation.causes) {
      std::printf("    likely cause: %-18s %.1f%%\n", cause.cause.c_str(),
                  cause.confidence);
      if (!cause.suggested_action.empty()) {
        std::printf("    last fix:     %s\n",
                    cause.suggested_action.c_str());
      }
    }
    size_t shown = 0;
    for (const auto& diag : alert->explanation.predicates) {
      if (++shown > 4) break;
      std::printf("    evidence:     %s\n",
                  diag.predicate.ToString().c_str());
    }
  }
  if (alerts == 0) {
    std::printf("\nNo alerts raised (unexpected for this scenario).\n");
  }
  return 0;
}
