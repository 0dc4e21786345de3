#ifndef DBSHERLOCK_CORE_ANOMALY_DETECTOR_H_
#define DBSHERLOCK_CORE_ANOMALY_DETECTOR_H_

#include <string>
#include <vector>

#include "tsdata/dataset.h"
#include "tsdata/region.h"

namespace dbsherlock::core {

/// Parameters of the automatic anomaly detector (Section 7). The paper
/// uses tau = 20, PPt = 0.3, minPts = 3, eps = max(Lk)/4, and reports
/// clusters smaller than 20% of the data as abnormal. This repository's
/// defaults keep tau/minPts/cluster rule but calibrate PPt = 0.45 and
/// eps = max(Lk)/2 — our simulated telemetry carries heavier-tailed
/// transient hiccups than the paper's testbed, which both push more
/// slow-drift attributes past PPt = 0.3 and inflate per-point k-distances.
/// The paper's exact values are one assignment away.
struct AnomalyDetectorOptions {
  size_t window = 20;                       // tau
  double potential_power_threshold = 0.45;  // PPt (paper: 0.3)
  int min_pts = 3;
  double eps_divisor = 2.0;       // eps = max(k-dist) / eps_divisor (paper: 4)
  double cluster_fraction = 0.2;  // small-cluster cutoff
  /// Region post-processing: detected ranges separated by at most this
  /// many seconds merge into one (an anomaly briefly dipping back toward
  /// normal is still one anomaly), and merged ranges shorter than
  /// `min_region_sec` are dropped as isolated hiccups.
  double merge_gap_sec = 4.0;
  double min_region_sec = 3.0;
  /// When converting a detection into diagnosis regions, rows within this
  /// many seconds of a detected boundary are ignored rather than treated
  /// as normal: the detector finds the anomaly's core, and trusting its
  /// exact edges would mislabel onset/offset ramp rows (Section 2.2's
  /// explicit-normal-region mechanism makes this possible).
  double boundary_guard_sec = 8.0;
  /// Graceful degradation: a numeric attribute with a lower fraction of
  /// finite cells than this is excluded from feature selection outright
  /// (reported in DetectionResult::skipped_attributes). Attributes above
  /// the threshold still participate, with each non-finite cell replaced by
  /// the column's normalized finite median so it can neither form nor break
  /// a cluster. 0 disables the gate.
  double min_attribute_quality = 0.75;
};

/// Output of automatic detection: the abnormal region (contiguous runs of
/// flagged rows), the flagged row indices, and diagnostics about the run.
struct DetectionResult {
  tsdata::RegionSpec abnormal;
  std::vector<size_t> abnormal_rows;
  /// Attributes whose potential power exceeded PPt (the features used).
  std::vector<std::string> selected_attributes;
  /// Attributes excluded for data quality (finite fraction below
  /// AnomalyDetectorOptions::min_attribute_quality), schema order.
  std::vector<std::string> skipped_attributes;
  double epsilon = 0.0;
};

/// Potential power of one normalized series (Eq. (4)): the largest absolute
/// difference between the overall median and any sliding-window median of
/// size `window`. Returns 0 when the series is shorter than the window.
double PotentialPower(std::span<const double> normalized_values,
                      size_t window);

/// Runs the full Section 7 pipeline: normalize each numeric attribute,
/// keep those with potential power above PPt, cluster the selected feature
/// vectors with DBSCAN (eps from the k-dist rule), and return the rows of
/// every cluster smaller than `cluster_fraction` of the data.
DetectionResult DetectAnomalies(const tsdata::Dataset& dataset,
                                const AnomalyDetectorOptions& options);

/// Converts a detection into the regions handed to the explainer: the
/// detected ranges become the abnormal region, and everything farther than
/// `boundary_guard_sec` from them becomes the explicit normal region (rows
/// inside the guard band are ignored — the detector's edges are fuzzy).
tsdata::DiagnosisRegions DetectionToRegions(
    const DetectionResult& detection, const tsdata::Dataset& dataset,
    const AnomalyDetectorOptions& options);

}  // namespace dbsherlock::core

#endif  // DBSHERLOCK_CORE_ANOMALY_DETECTOR_H_
