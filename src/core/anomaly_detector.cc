#include "core/anomaly_detector.h"

#include <algorithm>
#include <cmath>

#include "common/metrics.h"
#include "common/simd/simd.h"
#include "common/stats.h"
#include "common/trace.h"
#include "core/dbscan.h"

namespace dbsherlock::core {

double PotentialPower(std::span<const double> normalized_values,
                      size_t window) {
  if (window == 0 || normalized_values.size() < window) return 0.0;
  double overall = common::Median(normalized_values);
  std::vector<double> window_medians =
      common::SlidingMedian(normalized_values, window);
  double best = 0.0;
  for (double m : window_medians) {
    best = std::max(best, std::fabs(overall - m));
  }
  return best;
}

DetectionResult DetectAnomalies(const tsdata::Dataset& dataset,
                                const AnomalyDetectorOptions& options) {
  TRACE_SPAN("detect.anomalies");
  static common::Counter* runs =
      common::MetricsRegistry::Global().GetCounter("detect.runs");
  static common::LatencyHistogram* latency =
      common::MetricsRegistry::Global().GetHistogram("detect.run_us");
  runs->Increment();
  common::ScopedLatency timer(latency);

  DetectionResult result;
  const size_t n = dataset.num_rows();
  if (n == 0) return result;

  // 1. Normalize numeric attributes and keep the high-potential ones.
  // Normalization is over finite cells only (NaN in Median/sort is
  // undefined behavior); non-finite cells become the column's normalized
  // finite median — the one value that can neither create a window-median
  // excursion nor pull DBSCAN distances. Columns with too few finite cells
  // are excluded outright. On all-finite input this path is bit-identical
  // to plain common::MinMaxNormalize.
  std::vector<std::vector<double>> selected_columns;
  {
    TRACE_SPAN("detect.feature_selection");
    for (size_t attr = 0; attr < dataset.num_attributes(); ++attr) {
      const tsdata::Column& col = dataset.column(attr);
      if (col.kind() != tsdata::AttributeKind::kNumeric) continue;
      std::span<const double> values = col.numeric_values();
      std::vector<double> finite;
      finite.reserve(values.size());
      for (double v : values) {
        if (std::isfinite(v)) finite.push_back(v);
      }
      double quality = values.empty()
                           ? 1.0
                           : static_cast<double>(finite.size()) /
                                 static_cast<double>(values.size());
      if (finite.empty() || (options.min_attribute_quality > 0.0 &&
                             quality < options.min_attribute_quality)) {
        result.skipped_attributes.push_back(
            dataset.schema().attribute(attr).name);
        continue;
      }
      double lo = common::Min(finite);
      double hi = common::Max(finite);
      double fill = common::MinMaxNormalize(common::Median(finite), lo, hi);
      std::vector<double> normalized(values.size());
      // Per finite cell common::MinMaxNormalize's arithmetic (the kernel
      // wrapper owns the degenerate-range case), one vector sweep.
      common::simd::NormalizeSpan(values.data(), values.size(), lo, hi, fill,
                                  normalized.data());
      if (PotentialPower(normalized, options.window) >
          options.potential_power_threshold) {
        result.selected_attributes.push_back(
            dataset.schema().attribute(attr).name);
        selected_columns.push_back(std::move(normalized));
      }
    }
  }
  if (selected_columns.empty()) return result;

  // 2. Feature vectors over the selected attributes: the columns as they
  // are, already dimension-major, the layout the distance kernel streams.
  PointColumns columns;
  for (const auto& colvals : selected_columns) {
    columns.columns.push_back(colvals.data());
  }
  columns.num_points = n;

  // 3. eps from the k-dist heuristic; cluster.
  std::vector<double> kdist;
  {
    TRACE_SPAN("detect.kdist_epsilon");
    kdist = KDistances(columns, options.min_pts);
  }
  double max_kdist = kdist.empty()
                         ? 0.0
                         : *std::max_element(kdist.begin(), kdist.end());
  result.epsilon = max_kdist / options.eps_divisor;
  if (result.epsilon <= 0.0) return result;
  DbscanResult clusters;
  {
    TRACE_SPAN("detect.dbscan");
    clusters = Dbscan(columns, result.epsilon, options.min_pts);
  }

  // 4. Rows in clusters smaller than cluster_fraction of the data are the
  // detected anomaly (abnormal regions are assumed comparatively small).
  TRACE_SPAN("detect.postprocess");  // covers steps 4-6
  std::vector<size_t> sizes = clusters.ClusterSizes();
  double cutoff = options.cluster_fraction * static_cast<double>(n);
  for (size_t row = 0; row < n; ++row) {
    int c = clusters.cluster_of[row];
    if (c >= 0 && static_cast<double>(sizes[static_cast<size_t>(c)]) < cutoff) {
      result.abnormal_rows.push_back(row);
    }
  }

  // 5. Contiguous runs of flagged rows become time ranges. Each row covers
  // [t, t + collection interval); infer the interval from the data.
  double interval = 1.0;
  if (n >= 2) interval = dataset.timestamp(1) - dataset.timestamp(0);
  if (!std::isfinite(interval) || interval <= 0.0) interval = 1.0;
  std::vector<tsdata::TimeRange> ranges;
  size_t i = 0;
  while (i < result.abnormal_rows.size()) {
    size_t j = i;
    while (j + 1 < result.abnormal_rows.size() &&
           result.abnormal_rows[j + 1] == result.abnormal_rows[j] + 1) {
      ++j;
    }
    ranges.push_back({dataset.timestamp(result.abnormal_rows[i]),
                      dataset.timestamp(result.abnormal_rows[j]) + interval});
    i = j + 1;
  }

  // 6. Post-process: bridge small gaps (one anomaly briefly dipping toward
  // normal is still one anomaly), then drop isolated fragments (transient
  // hiccups flagged by the clustering).
  std::vector<tsdata::TimeRange> merged;
  for (const tsdata::TimeRange& range : ranges) {
    if (!merged.empty() &&
        range.start - merged.back().end <= options.merge_gap_sec) {
      merged.back().end = range.end;
    } else {
      merged.push_back(range);
    }
  }
  for (const tsdata::TimeRange& range : merged) {
    if (range.length() >= options.min_region_sec) {
      result.abnormal.Add(range);
    }
  }
  // Keep the row list consistent with the reported region (rows whose
  // fragment was dropped are no longer part of the detection).
  std::erase_if(result.abnormal_rows, [&](size_t row) {
    return !result.abnormal.Contains(dataset.timestamp(row));
  });
  return result;
}

tsdata::DiagnosisRegions DetectionToRegions(
    const DetectionResult& detection, const tsdata::Dataset& dataset,
    const AnomalyDetectorOptions& options) {
  tsdata::DiagnosisRegions regions;
  regions.abnormal = detection.abnormal;
  if (detection.abnormal.empty() || dataset.num_rows() == 0 ||
      options.boundary_guard_sec <= 0.0) {
    return regions;  // implicit normal = everything else
  }
  // Explicit normal = complement of the abnormal ranges expanded by the
  // guard; the guard band itself is ignored by the explainer.
  double t0 = dataset.timestamp(0);
  double t1 = dataset.timestamp(dataset.num_rows() - 1) + 1.0;
  std::vector<tsdata::TimeRange> expanded;
  for (const tsdata::TimeRange& r : detection.abnormal.ranges()) {
    expanded.push_back({r.start - options.boundary_guard_sec,
                        r.end + options.boundary_guard_sec});
  }
  std::sort(expanded.begin(), expanded.end(),
            [](const tsdata::TimeRange& a, const tsdata::TimeRange& b) {
              return a.start < b.start;
            });
  double cursor = t0;
  for (const tsdata::TimeRange& r : expanded) {
    if (r.start > cursor) regions.normal.Add(cursor, r.start);
    cursor = std::max(cursor, r.end);
  }
  if (cursor < t1) regions.normal.Add(cursor, t1);
  return regions;
}

}  // namespace dbsherlock::core
