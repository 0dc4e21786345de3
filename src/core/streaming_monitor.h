#ifndef DBSHERLOCK_CORE_STREAMING_MONITOR_H_
#define DBSHERLOCK_CORE_STREAMING_MONITOR_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/anomaly_detector.h"
#include "core/explainer.h"
#include "tsdata/dataset.h"

namespace dbsherlock::core {

/// Online monitoring: the paper's DBAs "constantly monitor their OLTP
/// workload"; this class packages Section 7's detector for that setting.
/// Telemetry rows stream in one per collection interval; the monitor keeps
/// a sliding window, periodically runs automatic anomaly detection over
/// it, and emits an alert — with the diagnosis — whenever a *new* anomaly
/// region appears (regions already alerted on are suppressed until they
/// end).
class StreamingMonitor {
 public:
  struct Options {
    /// Sliding window length in rows (the detector needs enough normal
    /// context; the paper's detection assumes the anomaly is < 20% of the
    /// window).
    size_t window_rows = 600;
    /// Detection cadence: run the detector every this many appended rows.
    size_t detect_every = 15;
    /// Minimum rows before the first detection.
    size_t warmup_rows = 120;
    /// Diagnosis configuration for alerts (causal models may be preloaded
    /// into the monitor's explainer). Its `detector_options` drive both
    /// alert detection and the region refinement of inline diagnoses.
    Explainer::Options explainer;
    /// When false, Append stops after detection: the alert still carries
    /// the region (and raised_at) but its explanation stays empty, for
    /// callers that run diagnosis out-of-band on their own worker pool —
    /// the service's background diagnosis loop snapshots the window and
    /// diagnoses there instead of blocking the ingest thread.
    bool diagnose_inline = true;
  };

  /// One emitted alert: the detected region (in stream timestamps) and the
  /// explanation computed over the current window.
  struct Alert {
    tsdata::TimeRange region;
    Explanation explanation;
    /// Timestamp of the row whose arrival triggered the alert.
    double raised_at = 0.0;
  };

  explicit StreamingMonitor(const tsdata::Schema& schema, Options options);

  /// Appends one telemetry row; returns an alert when a new anomaly region
  /// is detected at this step (std::nullopt otherwise — including on
  /// append errors, which leave the monitor unchanged).
  ///
  /// Hostile-stream contract: a row with a non-finite timestamp, a
  /// timestamp equal to the newest buffered row (duplicate), or an earlier
  /// timestamp (late arrival) is DROPPED — never allowed to corrupt the
  /// window's ordering invariant — counted in the *_dropped() counters,
  /// and recorded in last_append_status(). Row content is still validated
  /// by Dataset::AppendRow (arity, cell kinds).
  std::optional<Alert> Append(double timestamp,
                              const std::vector<tsdata::Cell>& cells);

  /// Pre-fills the window from persisted history (restart rehydration from
  /// the tenant's store). Rows must be strictly increasing and newer than
  /// anything already buffered; the whole tail is rejected otherwise. No
  /// detection runs, and the hydrated span is marked already-alerted so a
  /// restart never re-raises alerts for anomalies that predate it. Only
  /// valid before live appends (window must still warm up normally
  /// afterwards if the tail is short).
  common::Status Hydrate(const tsdata::Dataset& tail);

  /// The explainer used for alert diagnoses (preload causal models here).
  Explainer& explainer() { return explainer_; }

  /// Rows currently buffered.
  size_t window_size() const { return window_.num_rows(); }
  /// The current sliding window (read-only). Thread contract: only the
  /// thread that owns Append may touch this — the service's drain worker
  /// snapshots it here when an alert fires, before handing the copy to the
  /// background diagnosis pool.
  const tsdata::Dataset& window() const { return window_; }
  /// Total rows ever appended.
  size_t rows_seen() const { return rows_seen_; }
  /// Alerts raised so far.
  size_t alerts_raised() const { return alerts_raised_; }

  /// Dropped-row accounting (see Append's hostile-stream contract). These
  /// are the per-instance counts; the same events also increment the
  /// process-wide `streaming_monitor.*` counters in
  /// `common::MetricsRegistry`, which is what --metrics-out exports. The
  /// registry holds only those aggregates: a multi-tenant embedder that
  /// wants per-instance numbers copies these accessors (the service's
  /// STATS does, per tenant).
  size_t late_rows_dropped() const { return late_rows_dropped_; }
  size_t duplicate_rows_dropped() const { return duplicate_rows_dropped_; }
  size_t non_finite_rows_dropped() const { return non_finite_rows_dropped_; }
  /// Status of the most recent Append: OK when the row was accepted, an
  /// InvalidArgument describing why it was dropped otherwise.
  const common::Status& last_append_status() const {
    return last_append_status_;
  }

 private:
  /// Drops rows older than the window and re-bases storage.
  void TrimWindow();

  Options options_;
  tsdata::Dataset window_;
  Explainer explainer_;
  size_t rows_seen_ = 0;
  size_t rows_since_detect_ = 0;
  size_t late_rows_dropped_ = 0;
  size_t duplicate_rows_dropped_ = 0;
  size_t non_finite_rows_dropped_ = 0;
  size_t alerts_raised_ = 0;
  common::Status last_append_status_ = common::Status::OK();
  /// End timestamp of the most recently alerted region; regions starting
  /// before this are considered already reported.
  double alerted_until_ = -1e300;
};

}  // namespace dbsherlock::core

#endif  // DBSHERLOCK_CORE_STREAMING_MONITOR_H_
