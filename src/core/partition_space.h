#ifndef DBSHERLOCK_CORE_PARTITION_SPACE_H_
#define DBSHERLOCK_CORE_PARTITION_SPACE_H_

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/column_spans.h"
#include "tsdata/dataset.h"

namespace dbsherlock::core {

/// Label of one partition (Section 4.2).
enum class PartitionLabel {
  kEmpty,
  kNormal,
  kAbnormal,
};

/// A discretized attribute domain plus its per-partition labels — the
/// "partition space" of Section 4.1. Numeric spaces use R equi-width
/// partitions over [min, max]; categorical spaces use one partition per
/// distinct category value.
class PartitionSpace {
 public:
  /// Builds an unlabeled numeric space with `num_partitions` equi-width
  /// partitions covering [min_value, max_value].
  static PartitionSpace Numeric(double min_value, double max_value,
                                size_t num_partitions);

  /// Builds an unlabeled categorical space with one partition per entry of
  /// `categories` (partition j represents categories[j]).
  static PartitionSpace Categorical(std::vector<std::string> categories);

  bool is_numeric() const { return is_numeric_; }
  size_t size() const { return labels_.size(); }

  PartitionLabel label(size_t j) const { return labels_[j]; }
  void set_label(size_t j, PartitionLabel l) { labels_[j] = l; }
  const std::vector<PartitionLabel>& labels() const { return labels_; }

  /// Numeric partition boundaries: Pj covers [lower_bound(j),
  /// upper_bound(j)), except the last partition which also includes max.
  double lower_bound(size_t j) const;
  double upper_bound(size_t j) const;
  double mid_value(size_t j) const;
  double min_value() const { return min_value_; }
  double max_value() const { return max_value_; }
  /// Equi-width partition width (numeric spaces; 1.0 when degenerate).
  double width() const { return width_; }

  /// Partition index containing `value` (numeric spaces; clamps to edges).
  size_t PartitionOf(double value) const;

  const std::string& category(size_t j) const { return categories_[j]; }
  const std::vector<std::string>& categories() const { return categories_; }

  size_t CountWithLabel(PartitionLabel l) const;

 private:
  PartitionSpace() = default;

  bool is_numeric_ = true;
  double min_value_ = 0.0;
  double max_value_ = 0.0;
  double width_ = 1.0;
  std::vector<PartitionLabel> labels_;
  std::vector<std::string> categories_;  // categorical only
};

/// Labels a numeric partition space from the attribute's values and the
/// user's regions (Section 4.2): a partition is Abnormal when every tuple
/// in it is abnormal, Normal when every tuple is normal, Empty otherwise
/// (no tuples, mixed tuples, or only ignored tuples). Each run of diagnosis
/// rows goes through the dispatched PartitionIndices kernel, which maps a
/// cell to the partition PartitionOf gives it; non-finite cells vote for
/// no partition.
void LabelNumericPartitions(std::span<const double> values,
                            const DiagnosisRuns& runs, PartitionSpace* space);

/// Labels a categorical partition space by majority count: Abnormal when
/// strictly more abnormal than normal tuples carry the category, Normal
/// when strictly fewer, Empty on ties (Section 4.2). Each run of diagnosis
/// rows is tallied as one sequential sweep over the codes column.
void LabelCategoricalPartitions(std::span<const int32_t> codes,
                                const DiagnosisRuns& runs,
                                PartitionSpace* space);

/// The filtering step of Section 4.3 (numeric only): simultaneously blanks
/// every partition whose label differs from either of its nearest non-Empty
/// neighbors (using pre-filter labels for all decisions). A space with a
/// single non-Empty partition is left untouched ("we deem it significant").
void FilterPartitions(PartitionSpace* space);

/// The skewed-attribute special case shared by gap filling (Section 4.4)
/// and causal-model confidence (Eq. (3)): when a numeric space has Abnormal
/// partitions but no Normal one — every normal tuple shares its partition
/// with abnormal ramp tuples — the partition containing `anchor` (the
/// attribute's mean over normal-region rows) is forced to Normal so the
/// predicate direction stays judgeable. Returns true when a label was
/// planted; no-op (false) on categorical or empty spaces or when a Normal
/// partition already exists.
bool PlantNormalAnchorIfNeeded(PartitionSpace* space, double anchor);

/// The gap-filling step of Section 4.4 (numeric only): every Empty
/// partition takes the label of its nearest non-Empty neighbor, with the
/// distance to an Abnormal neighbor multiplied by `delta` (the anomaly
/// distance multiplier; delta > 1 biases toward Normal). `normal_anchor`
/// handles the all-Abnormal special case: when the space has no Normal
/// partition but at least one Abnormal one, the partition containing the
/// anchor value (the attribute's mean over normal-region tuples) is forced
/// to Normal before filling.
void FillPartitionGaps(PartitionSpace* space, double delta,
                       std::optional<double> normal_anchor);

/// A maximal run [first, last] of consecutive Abnormal partitions.
struct AbnormalBlock {
  size_t first = 0;
  size_t last = 0;
};

/// Returns the block of Abnormal partitions if they form exactly one
/// consecutive run (the extraction precondition of Section 4.5);
/// std::nullopt when there are none or they are discontiguous.
std::optional<AbnormalBlock> SingleAbnormalBlock(const PartitionSpace& space);

}  // namespace dbsherlock::core

#endif  // DBSHERLOCK_CORE_PARTITION_SPACE_H_
