#include "core/partition_space.h"

#include <algorithm>
#include <cmath>

#include "common/simd/simd.h"

namespace dbsherlock::core {

PartitionSpace PartitionSpace::Numeric(double min_value, double max_value,
                                       size_t num_partitions) {
  PartitionSpace space;
  space.is_numeric_ = true;
  space.min_value_ = min_value;
  space.max_value_ = max_value;
  if (num_partitions == 0) num_partitions = 1;
  space.labels_.assign(num_partitions, PartitionLabel::kEmpty);
  space.width_ =
      (max_value - min_value) / static_cast<double>(num_partitions);
  if (space.width_ <= 0.0) space.width_ = 1.0;
  return space;
}

PartitionSpace PartitionSpace::Categorical(
    std::vector<std::string> categories) {
  PartitionSpace space;
  space.is_numeric_ = false;
  space.labels_.assign(categories.size(), PartitionLabel::kEmpty);
  space.categories_ = std::move(categories);
  return space;
}

double PartitionSpace::lower_bound(size_t j) const {
  return min_value_ + width_ * static_cast<double>(j);
}

double PartitionSpace::upper_bound(size_t j) const {
  return min_value_ + width_ * static_cast<double>(j + 1);
}

double PartitionSpace::mid_value(size_t j) const {
  return min_value_ + width_ * (static_cast<double>(j) + 0.5);
}

size_t PartitionSpace::PartitionOf(double value) const {
  // NaN would make the size_t cast below undefined behavior; clamp hostile
  // values to the first partition (callers are expected to have filtered
  // non-finite cells already — this is the last line of defense).
  if (labels_.empty() || std::isnan(value) || value <= min_value_) return 0;
  size_t j = static_cast<size_t>(
      std::min((value - min_value_) / width_,
               static_cast<double>(labels_.size() - 1)));
  return std::min(j, labels_.size() - 1);
}

size_t PartitionSpace::CountWithLabel(PartitionLabel l) const {
  return static_cast<size_t>(
      std::count(labels_.begin(), labels_.end(), l));
}

void LabelNumericPartitions(std::span<const double> values,
                            const DiagnosisRuns& runs,
                            PartitionSpace* space) {
  const size_t num = space->size();
  // Four interleaved sub-histograms per region: smooth telemetry lands
  // consecutive cells in the same partition, and a single count array would
  // serialize those increments on the store-to-load dependency. Integer
  // counts are exact, so the labels stay ISA-independent.
  std::vector<uint32_t> abnormal_count(4 * num, 0);
  std::vector<uint32_t> normal_count(4 * num, 0);
  std::vector<uint32_t> indices;
  auto tally = [&](const std::vector<RowRun>& region_runs,
                   std::vector<uint32_t>* counts) {
    uint32_t* c0 = counts->data();
    uint32_t* c1 = c0 + num;
    uint32_t* c2 = c1 + num;
    uint32_t* c3 = c2 + num;
    for (const RowRun& run : region_runs) {
      indices.resize(run.size());
      common::simd::PartitionIndices(
          values.data() + run.begin, run.size(), space->min_value(),
          space->width(), static_cast<uint32_t>(num), indices.data());
      // Non-finite cells voted for no partition (see kNoPartition).
      constexpr uint32_t kNone = common::simd::kNoPartition;
      size_t m = indices.size();
      size_t i = 0;
      for (; i + 4 <= m; i += 4) {
        uint32_t i0 = indices[i];
        uint32_t i1 = indices[i + 1];
        uint32_t i2 = indices[i + 2];
        uint32_t i3 = indices[i + 3];
        if (i0 != kNone) ++c0[i0];
        if (i1 != kNone) ++c1[i1];
        if (i2 != kNone) ++c2[i2];
        if (i3 != kNone) ++c3[i3];
      }
      for (; i < m; ++i) {
        if (indices[i] != kNone) ++c0[indices[i]];
      }
    }
  };
  tally(runs.abnormal, &abnormal_count);
  tally(runs.normal, &normal_count);
  for (size_t j = 0; j < num; ++j) {
    uint32_t a = abnormal_count[j] + abnormal_count[num + j] +
                 abnormal_count[2 * num + j] + abnormal_count[3 * num + j];
    uint32_t nc = normal_count[j] + normal_count[num + j] +
                  normal_count[2 * num + j] + normal_count[3 * num + j];
    if (a > 0 && nc == 0) {
      space->set_label(j, PartitionLabel::kAbnormal);
    } else if (nc > 0 && a == 0) {
      space->set_label(j, PartitionLabel::kNormal);
    } else {
      space->set_label(j, PartitionLabel::kEmpty);
    }
  }
}

void LabelCategoricalPartitions(std::span<const int32_t> codes,
                                const DiagnosisRuns& runs,
                                PartitionSpace* space) {
  const size_t num = space->size();
  // Same interleaved sub-histogram trick as LabelNumericPartitions:
  // consecutive rows usually carry the same category code, and one count
  // array would serialize the increments on a store-to-load dependency.
  std::vector<uint32_t> abnormal_count(4 * num, 0);
  std::vector<uint32_t> normal_count(4 * num, 0);
  auto tally = [&](const std::vector<RowRun>& region_runs,
                   std::vector<uint32_t>* counts) {
    uint32_t* c0 = counts->data();
    uint32_t* c1 = c0 + num;
    uint32_t* c2 = c1 + num;
    uint32_t* c3 = c2 + num;
    for (const RowRun& run : region_runs) {
      const int32_t* p = codes.data() + run.begin;
      size_t m = run.size();
      size_t i = 0;
      for (; i + 4 <= m; i += 4) {
        ++c0[static_cast<size_t>(p[i])];
        ++c1[static_cast<size_t>(p[i + 1])];
        ++c2[static_cast<size_t>(p[i + 2])];
        ++c3[static_cast<size_t>(p[i + 3])];
      }
      for (; i < m; ++i) ++c0[static_cast<size_t>(p[i])];
    }
  };
  tally(runs.abnormal, &abnormal_count);
  tally(runs.normal, &normal_count);
  for (size_t j = 0; j < num; ++j) {
    uint32_t a = abnormal_count[j] + abnormal_count[num + j] +
                 abnormal_count[2 * num + j] + abnormal_count[3 * num + j];
    uint32_t nc = normal_count[j] + normal_count[num + j] +
                  normal_count[2 * num + j] + normal_count[3 * num + j];
    if (a > nc) {
      space->set_label(j, PartitionLabel::kAbnormal);
    } else if (nc > a) {
      space->set_label(j, PartitionLabel::kNormal);
    } else {
      space->set_label(j, PartitionLabel::kEmpty);
    }
  }
}

void FilterPartitions(PartitionSpace* space) {
  // Indices of non-Empty partitions, in order.
  std::vector<size_t> non_empty;
  for (size_t j = 0; j < space->size(); ++j) {
    if (space->label(j) != PartitionLabel::kEmpty) non_empty.push_back(j);
  }
  // A lone Normal/Abnormal partition is deemed significant (Section 4.3).
  if (non_empty.size() <= 1) return;

  // Decide simultaneously from the pre-filter labels (the paper's
  // non-incremental rule, which keeps end partitions alive in Fig. 5's
  // scenarios 2 and 3).
  std::vector<size_t> to_blank;
  for (size_t k = 0; k < non_empty.size(); ++k) {
    size_t j = non_empty[k];
    PartitionLabel mine = space->label(j);
    bool differs = false;
    if (k > 0 && space->label(non_empty[k - 1]) != mine) differs = true;
    if (k + 1 < non_empty.size() && space->label(non_empty[k + 1]) != mine) {
      differs = true;
    }
    if (differs) to_blank.push_back(j);
  }
  for (size_t j : to_blank) space->set_label(j, PartitionLabel::kEmpty);
}

bool PlantNormalAnchorIfNeeded(PartitionSpace* space, double anchor) {
  if (!space->is_numeric() || space->size() == 0) return false;
  if (space->CountWithLabel(PartitionLabel::kNormal) > 0) return false;
  if (space->CountWithLabel(PartitionLabel::kAbnormal) == 0) return false;
  space->set_label(space->PartitionOf(anchor), PartitionLabel::kNormal);
  return true;
}

void FillPartitionGaps(PartitionSpace* space, double delta,
                       std::optional<double> normal_anchor) {
  size_t n = space->size();
  if (n == 0) return;

  bool has_normal = space->CountWithLabel(PartitionLabel::kNormal) > 0;
  bool has_abnormal = space->CountWithLabel(PartitionLabel::kAbnormal) > 0;
  if (!has_abnormal && !has_normal) return;  // nothing to anchor on

  // Special case (Section 4.4): only Abnormal partitions survived the
  // filter. Plant a Normal partition at the average normal-region value so
  // the predicate direction is determined.
  if (normal_anchor.has_value()) {
    PlantNormalAnchorIfNeeded(space, *normal_anchor);
  }

  // Nearest non-Empty partition to the left/right of each position, based
  // on the post-filter labels (filling is a single simultaneous pass).
  std::vector<ptrdiff_t> left(n, -1);
  std::vector<ptrdiff_t> right(n, -1);
  ptrdiff_t last = -1;
  for (size_t j = 0; j < n; ++j) {
    if (space->label(j) != PartitionLabel::kEmpty) last = static_cast<ptrdiff_t>(j);
    left[j] = last;
  }
  last = -1;
  for (size_t j = n; j-- > 0;) {
    if (space->label(j) != PartitionLabel::kEmpty) last = static_cast<ptrdiff_t>(j);
    right[j] = last;
  }

  std::vector<PartitionLabel> result(space->labels());
  for (size_t j = 0; j < n; ++j) {
    if (space->label(j) != PartitionLabel::kEmpty) continue;
    ptrdiff_t l = left[j];
    ptrdiff_t r = right[j];
    if (l < 0 && r < 0) continue;  // unreachable: guarded above
    if (l < 0) {
      result[j] = space->label(static_cast<size_t>(r));
      continue;
    }
    if (r < 0) {
      result[j] = space->label(static_cast<size_t>(l));
      continue;
    }
    PartitionLabel ll = space->label(static_cast<size_t>(l));
    PartitionLabel rl = space->label(static_cast<size_t>(r));
    if (ll == rl) {
      result[j] = ll;
      continue;
    }
    // Effective distances: the Abnormal side is pushed `delta` times
    // farther away (delta > 1 => more specific predicates).
    double dist_l = static_cast<double>(static_cast<ptrdiff_t>(j) - l);
    double dist_r = static_cast<double>(r - static_cast<ptrdiff_t>(j));
    if (ll == PartitionLabel::kAbnormal) dist_l *= delta;
    if (rl == PartitionLabel::kAbnormal) dist_r *= delta;
    if (dist_l < dist_r) {
      result[j] = ll;
    } else if (dist_r < dist_l) {
      result[j] = rl;
    } else {
      // Tie: prefer Normal (consistent with delta's bias direction).
      result[j] = ll == PartitionLabel::kNormal ? ll : rl;
    }
  }
  for (size_t j = 0; j < n; ++j) space->set_label(j, result[j]);
}

std::optional<AbnormalBlock> SingleAbnormalBlock(
    const PartitionSpace& space) {
  std::optional<AbnormalBlock> block;
  bool in_run = false;
  for (size_t j = 0; j < space.size(); ++j) {
    if (space.label(j) == PartitionLabel::kAbnormal) {
      if (!in_run) {
        if (block.has_value()) return std::nullopt;  // second run
        block = AbnormalBlock{j, j};
        in_run = true;
      } else {
        block->last = j;
      }
    } else {
      in_run = false;
    }
  }
  return block;
}

}  // namespace dbsherlock::core
