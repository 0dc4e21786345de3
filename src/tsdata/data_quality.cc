#include "tsdata/data_quality.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/stats.h"
#include "common/strings.h"

namespace dbsherlock::tsdata {

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

common::Status ValidateOptions(const QualityOptions& options) {
  if (options.min_usable_fraction < 0.0 ||
      options.min_usable_fraction > 1.0) {
    return common::Status::InvalidArgument(common::StrFormat(
        "min_usable_fraction must be in [0, 1], got %g",
        options.min_usable_fraction));
  }
  if (options.outlier_zscore <= 0.0) {
    return common::Status::InvalidArgument(common::StrFormat(
        "outlier_zscore must be positive, got %g", options.outlier_zscore));
  }
  return common::Status::OK();
}

/// Median of the finite values of `values` (copies); nullopt when none.
std::optional<double> FiniteMedian(std::span<const double> values) {
  std::vector<double> finite;
  finite.reserve(values.size());
  for (double v : values) {
    if (std::isfinite(v)) finite.push_back(v);
  }
  if (finite.empty()) return std::nullopt;
  return common::Median(finite);
}

AttributeQuality AuditNumericColumn(const std::string& name,
                                    std::span<const double> values,
                                    const QualityOptions& options) {
  AttributeQuality q;
  q.name = name;
  q.rows = values.size();
  if (values.empty()) return q;

  // One pass: NaN/Inf counts and stuck runs (runs of bit-identical finite
  // values; NaN != NaN, so a frozen-at-NaN sensor is already NaN-counted).
  size_t run = 1;
  auto close_run = [&](size_t length) {
    q.longest_stuck_run = std::max(q.longest_stuck_run, length);
    if (options.stuck_run_threshold > 0 &&
        length >= options.stuck_run_threshold) {
      q.stuck_count += length;
    }
  };
  for (size_t i = 0; i < values.size(); ++i) {
    double v = values[i];
    if (std::isnan(v)) {
      ++q.nan_count;
    } else if (std::isinf(v)) {
      ++q.inf_count;
    }
    if (i > 0) {
      if (values[i] == values[i - 1]) {
        ++run;
      } else {
        close_run(run);
        run = 1;
      }
    }
  }
  close_run(run);

  // Spike outliers via median +- z * 1.4826 * MAD over finite values.
  std::optional<double> median = FiniteMedian(values);
  if (median.has_value()) {
    std::vector<double> deviations;
    deviations.reserve(values.size());
    for (double v : values) {
      if (std::isfinite(v)) deviations.push_back(std::fabs(v - *median));
    }
    double mad = common::Median(deviations);
    double robust_std = 1.4826 * mad;
    if (robust_std > 0.0) {
      double cutoff = options.outlier_zscore * robust_std;
      for (double v : values) {
        if (std::isfinite(v) && std::fabs(v - *median) > cutoff) {
          ++q.outlier_count;
        }
      }
    }
  }

  size_t finite = q.rows - q.nan_count - q.inf_count;
  q.finite_fraction =
      static_cast<double>(finite) / static_cast<double>(q.rows);
  q.usable = q.finite_fraction >= options.min_usable_fraction;
  return q;
}

}  // namespace

bool QualityReport::clean() const {
  if (duplicate_timestamps > 0 || out_of_order_timestamps > 0 ||
      non_finite_timestamps > 0 || !timestamps_monotonic) {
    return false;
  }
  for (const AttributeQuality& q : attributes) {
    if (q.nan_count > 0 || q.inf_count > 0 || q.stuck_count > 0 ||
        q.outlier_count > 0 || !q.usable) {
      return false;
    }
  }
  return true;
}

std::vector<std::string> QualityReport::UnusableAttributes() const {
  std::vector<std::string> out;
  for (const AttributeQuality& q : attributes) {
    if (!q.usable) out.push_back(q.name);
  }
  return out;
}

std::string QualityReport::ToString() const {
  std::string out = common::StrFormat(
      "QualityReport: %zu rows; timestamps %s (%zu dup, %zu out-of-order, "
      "%zu non-finite)\n",
      num_rows, timestamps_monotonic ? "monotonic" : "NOT monotonic",
      duplicate_timestamps, out_of_order_timestamps, non_finite_timestamps);
  for (const AttributeQuality& q : attributes) {
    if (q.nan_count == 0 && q.inf_count == 0 && q.stuck_count == 0 &&
        q.outlier_count == 0 && q.usable) {
      continue;
    }
    out += common::StrFormat(
        "  %-28s finite %.1f%%%s: %zu NaN, %zu Inf, %zu stuck (longest run "
        "%zu), %zu outliers\n",
        q.name.c_str(), 100.0 * q.finite_fraction,
        q.usable ? "" : " [UNUSABLE]", q.nan_count, q.inf_count,
        q.stuck_count, q.longest_stuck_run, q.outlier_count);
  }
  return out;
}

common::JsonValue QualityReport::ToJson() const {
  common::JsonValue::Object root;
  root["num_rows"] = static_cast<double>(num_rows);
  common::JsonValue::Object ts;
  ts["monotonic"] = timestamps_monotonic;
  ts["duplicates"] = static_cast<double>(duplicate_timestamps);
  ts["out_of_order"] = static_cast<double>(out_of_order_timestamps);
  ts["non_finite"] = static_cast<double>(non_finite_timestamps);
  root["timestamps"] = std::move(ts);
  common::JsonValue::Array attrs;
  for (const AttributeQuality& q : attributes) {
    common::JsonValue::Object a;
    a["name"] = q.name;
    a["rows"] = static_cast<double>(q.rows);
    a["nan"] = static_cast<double>(q.nan_count);
    a["inf"] = static_cast<double>(q.inf_count);
    a["stuck"] = static_cast<double>(q.stuck_count);
    a["longest_stuck_run"] = static_cast<double>(q.longest_stuck_run);
    a["outliers"] = static_cast<double>(q.outlier_count);
    a["finite_fraction"] = q.finite_fraction;
    a["distinct_fraction"] = q.distinct_fraction;
    a["usable"] = q.usable;
    attrs.push_back(std::move(a));
  }
  root["attributes"] = std::move(attrs);
  root["clean"] = clean();
  return common::JsonValue(std::move(root));
}

common::Result<QualityReport> AuditDataset(const Dataset& dataset,
                                           const QualityOptions& options) {
  DBSHERLOCK_RETURN_NOT_OK(ValidateOptions(options));
  QualityReport report;
  report.num_rows = dataset.num_rows();

  std::span<const double> ts = dataset.timestamps();
  for (size_t i = 0; i < ts.size(); ++i) {
    if (!std::isfinite(ts[i])) {
      ++report.non_finite_timestamps;
      report.timestamps_monotonic = false;
      continue;
    }
    if (i == 0 || !std::isfinite(ts[i - 1])) continue;
    if (ts[i] == ts[i - 1]) {
      ++report.duplicate_timestamps;
    } else if (ts[i] < ts[i - 1]) {
      ++report.out_of_order_timestamps;
      report.timestamps_monotonic = false;
    }
  }

  for (size_t attr = 0; attr < dataset.num_attributes(); ++attr) {
    const AttributeSpec& spec = dataset.schema().attribute(attr);
    const Column& col = dataset.column(attr);
    if (col.kind() == AttributeKind::kNumeric) {
      report.attributes.push_back(
          AuditNumericColumn(spec.name, col.numeric_values(), options));
    } else {
      AttributeQuality q;
      q.name = spec.name;
      q.rows = col.size();
      q.distinct_fraction =
          q.rows == 0 ? 0.0
                      : static_cast<double>(col.num_categories()) /
                            static_cast<double>(q.rows);
      report.attributes.push_back(std::move(q));
    }
  }
  return report;
}

common::Result<RepairedDataset> RepairDataset(const Dataset& dataset,
                                              const QualityOptions& options) {
  DBSHERLOCK_RETURN_NOT_OK(ValidateOptions(options));
  RepairedDataset out;
  out.data = Dataset(dataset.schema());

  // 1. Row selection and ordering: drop non-finite timestamps, stable-sort
  // the rest by timestamp, then drop exact duplicates (first kept — the
  // earliest-received reading is the one a live collector would have
  // stored first).
  std::vector<size_t> order;
  order.reserve(dataset.num_rows());
  for (size_t row = 0; row < dataset.num_rows(); ++row) {
    if (std::isfinite(dataset.timestamp(row))) {
      order.push_back(row);
    } else {
      ++out.summary.rows_dropped_non_finite_ts;
    }
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return dataset.timestamp(a) < dataset.timestamp(b);
  });
  std::vector<size_t> kept;
  kept.reserve(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    if (i > 0 &&
        dataset.timestamp(order[i]) == dataset.timestamp(order[i - 1])) {
      ++out.summary.rows_dropped_duplicate_ts;
      continue;
    }
    kept.push_back(order[i]);
  }
  for (size_t i = 0; i < kept.size(); ++i) {
    // A row "moved" when its source index is out of order vs its neighbor.
    if (i > 0 && kept[i] < kept[i - 1]) ++out.summary.rows_reordered;
  }

  // 2. Materialize the selected rows in timestamp order.
  std::vector<Cell> cells;
  for (size_t row : kept) {
    dataset.RowCells(row, &cells);
    DBSHERLOCK_RETURN_NOT_OK(
        out.data.AppendRow(dataset.timestamp(row), cells));
  }

  // 3. Per numeric column: mask Inf to NaN, then bridge short NaN runs by
  // linear interpolation between finite neighbors; edge runs hold the
  // nearest finite value. Runs longer than max_interpolate_gap stay NaN.
  for (size_t c = 0; c < out.data.num_attributes(); ++c) {
    Column* col = out.data.mutable_column(c);
    if (col->kind() != AttributeKind::kNumeric) continue;
    const size_t n = col->size();
    std::vector<double> values(col->numeric_values().begin(),
                               col->numeric_values().end());
    for (double& v : values) {
      if (std::isinf(v)) {
        v = kNan;
        ++out.summary.cells_masked_inf;
      }
    }

    // Spike masking: a run of at most max_spike_run consecutive extreme
    // outliers is a collector glitch — mask it so interpolation bridges
    // it. Longer outlier runs are genuine anomaly episodes (a real
    // saturation holds its level for many samples) and must survive
    // repair untouched; likewise a constant-noise column (MAD == 0) is
    // left alone rather than declaring every deviation a spike.
    if (options.max_spike_run > 0) {
      std::optional<double> median = FiniteMedian(values);
      if (median.has_value()) {
        std::vector<double> deviations;
        deviations.reserve(values.size());
        for (double v : values) {
          if (std::isfinite(v)) deviations.push_back(std::fabs(v - *median));
        }
        double robust_std = 1.4826 * common::Median(deviations);
        if (robust_std > 0.0) {
          double cutoff = options.outlier_zscore * robust_std;
          size_t r = 0;
          while (r < n) {
            if (!(std::isfinite(values[r]) &&
                  std::fabs(values[r] - *median) > cutoff)) {
              ++r;
              continue;
            }
            size_t end = r;
            while (end + 1 < n && std::isfinite(values[end + 1]) &&
                   std::fabs(values[end + 1] - *median) > cutoff) {
              ++end;
            }
            if (end - r + 1 <= options.max_spike_run) {
              for (size_t k = r; k <= end; ++k) {
                values[k] = kNan;
                ++out.summary.cells_masked_spike;
              }
            }
            r = end + 1;
          }
        }
      }
    }

    size_t i = 0;
    while (i < n) {
      if (!std::isnan(values[i])) {
        ++i;
        continue;
      }
      size_t j = i;
      while (j + 1 < n && std::isnan(values[j + 1])) ++j;
      size_t gap = j - i + 1;
      bool has_left = i > 0;
      bool has_right = j + 1 < n;
      if (gap > options.max_interpolate_gap || (!has_left && !has_right)) {
        out.summary.cells_left_nan += gap;
      } else if (has_left && has_right) {
        double lo = values[i - 1];
        double hi = values[j + 1];
        for (size_t k = i; k <= j; ++k) {
          double t = static_cast<double>(k - i + 1) /
                     static_cast<double>(gap + 1);
          values[k] = lo + (hi - lo) * t;
          ++out.summary.cells_interpolated;
        }
      } else {
        double fill = has_left ? values[i - 1] : values[j + 1];
        for (size_t k = i; k <= j; ++k) {
          values[k] = fill;
          ++out.summary.cells_interpolated;
        }
      }
      i = j + 1;
    }
    *col = Column(AttributeKind::kNumeric);
    for (double v : values) col->AppendNumeric(v);
  }
  return out;
}

}  // namespace dbsherlock::tsdata
