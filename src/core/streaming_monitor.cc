#include "core/streaming_monitor.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/metrics.h"
#include "common/strings.h"
#include "common/trace.h"

namespace dbsherlock::core {

namespace {

/// Registry-backed monitor accounting: the process-wide totals exported by
/// --metrics-out, each event counted once however many monitors run. The
/// per-monitor view is the counts on the class.
struct MonitorMetrics {
  common::Counter* rows_appended;
  common::Counter* rows_dropped_late;
  common::Counter* rows_dropped_duplicate;
  common::Counter* rows_dropped_non_finite;
  common::Counter* detections_run;
  common::Counter* alerts_raised;

  static const MonitorMetrics& Get() {
    static const MonitorMetrics metrics = [] {
      common::MetricsRegistry& reg = common::MetricsRegistry::Global();
      return MonitorMetrics{
          reg.GetCounter("streaming_monitor.rows_appended"),
          reg.GetCounter("streaming_monitor.rows_dropped_late"),
          reg.GetCounter("streaming_monitor.rows_dropped_duplicate"),
          reg.GetCounter("streaming_monitor.rows_dropped_non_finite"),
          reg.GetCounter("streaming_monitor.detections_run"),
          reg.GetCounter("streaming_monitor.alerts_raised")};
    }();
    return metrics;
  }
};

}  // namespace

StreamingMonitor::StreamingMonitor(const tsdata::Schema& schema,
                                   Options options)
    : options_(std::move(options)),
      window_(schema),
      explainer_(options_.explainer) {}

void StreamingMonitor::TrimWindow() {
  // Hysteresis: trimming copies the window, so let it overshoot by a chunk
  // and cut back in one go (amortized O(1) per appended row).
  constexpr size_t kSlack = 64;
  if (window_.num_rows() <= options_.window_rows + kSlack) return;
  size_t drop = window_.num_rows() - options_.window_rows;
  window_ = window_.Slice(drop, window_.num_rows());
}

common::Status StreamingMonitor::Hydrate(const tsdata::Dataset& tail) {
  if (!(tail.schema() == window_.schema())) {
    return common::Status::InvalidArgument(
        "hydration tail schema does not match the monitor schema");
  }
  if (!tail.TimestampsSorted()) {
    return common::Status::InvalidArgument(
        "hydration tail timestamps are not sorted");
  }
  double newest = window_.num_rows() > 0
                      ? window_.timestamp(window_.num_rows() - 1)
                      : -std::numeric_limits<double>::infinity();
  std::vector<tsdata::Cell> cells;
  for (size_t row = 0; row < tail.num_rows(); ++row) {
    double ts = tail.timestamp(row);
    if (!std::isfinite(ts) || !(ts > newest)) {
      return common::Status::InvalidArgument(common::StrFormat(
          "hydration row %zu timestamp %g is not after %g", row, ts,
          newest));
    }
    tail.RowCells(row, &cells);
    DBSHERLOCK_RETURN_NOT_OK(window_.AppendRow(ts, cells));
    newest = ts;
    ++rows_seen_;
  }
  TrimWindow();
  // History was already monitored before the restart: anything in the
  // hydrated span must not re-alert.
  if (window_.num_rows() > 0) {
    alerted_until_ =
        std::max(alerted_until_, window_.timestamp(window_.num_rows() - 1));
  }
  return common::Status::OK();
}

std::optional<StreamingMonitor::Alert> StreamingMonitor::Append(
    double timestamp, const std::vector<tsdata::Cell>& cells) {
  // Timestamp triage before touching the window: Dataset::AppendRow would
  // accept a NaN timestamp (NaN < back is false) and a duplicate, either of
  // which corrupts the window ordering the detector depends on.
  if (!std::isfinite(timestamp)) {
    ++non_finite_rows_dropped_;
    MonitorMetrics::Get().rows_dropped_non_finite->Increment();
    last_append_status_ = common::Status::InvalidArgument(
        "dropped row with non-finite timestamp");
    return std::nullopt;
  }
  if (window_.num_rows() > 0) {
    double last = window_.timestamp(window_.num_rows() - 1);
    if (timestamp == last) {
      ++duplicate_rows_dropped_;
      MonitorMetrics::Get().rows_dropped_duplicate->Increment();
      last_append_status_ = common::Status::InvalidArgument(
          common::StrFormat("dropped duplicate row at timestamp %g",
                            timestamp));
      return std::nullopt;
    }
    if (timestamp < last) {
      ++late_rows_dropped_;
      MonitorMetrics::Get().rows_dropped_late->Increment();
      last_append_status_ = common::Status::InvalidArgument(
          common::StrFormat("dropped late row: timestamp %g < newest %g",
                            timestamp, last));
      return std::nullopt;
    }
  }
  last_append_status_ = window_.AppendRow(timestamp, cells);
  if (!last_append_status_.ok()) return std::nullopt;
  ++rows_seen_;
  ++rows_since_detect_;
  MonitorMetrics::Get().rows_appended->Increment();
  TrimWindow();

  if (rows_seen_ < options_.warmup_rows ||
      rows_since_detect_ < options_.detect_every) {
    return std::nullopt;
  }
  rows_since_detect_ = 0;

  TRACE_SPAN("streaming_monitor.detect_and_diagnose");
  MonitorMetrics::Get().detections_run->Increment();
  const AnomalyDetectorOptions& detector =
      options_.explainer.detector_options;
  DetectionResult detection = DetectAnomalies(window_, detector);
  if (detection.abnormal.empty()) return std::nullopt;

  // Report only regions not already alerted on; among the new ones, take
  // the most recent (the live incident).
  const tsdata::TimeRange* fresh = nullptr;
  for (const tsdata::TimeRange& range : detection.abnormal.ranges()) {
    if (range.start > alerted_until_) {
      if (fresh == nullptr || range.start > fresh->start) fresh = &range;
    }
  }
  if (fresh == nullptr) return std::nullopt;

  Alert alert;
  alert.region = *fresh;
  alert.raised_at = timestamp;
  if (options_.diagnose_inline) {
    DetectionResult narrowed = detection;
    narrowed.abnormal = tsdata::RegionSpec({*fresh});
    alert.explanation = explainer_.Diagnose(
        window_,
        DetectionToRegions(narrowed, window_, detector));
  }
  alerted_until_ = fresh->end;
  ++alerts_raised_;
  MonitorMetrics::Get().alerts_raised->Increment();
  return alert;
}

}  // namespace dbsherlock::core
