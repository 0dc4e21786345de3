#include "core/predicate_generator.h"

#include <algorithm>
#include <cmath>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/simd/simd.h"
#include "common/stats.h"
#include "common/strings.h"
#include "common/trace.h"

namespace dbsherlock::core {

namespace {

/// Builds the predicate for a single abnormal block (Section 4.5). Returns
/// nullopt when the block spans the whole space (no direction).
std::optional<Predicate> PredicateFromBlock(const PartitionSpace& space,
                                            const AbnormalBlock& block,
                                            const std::string& attribute) {
  bool at_left = block.first == 0;
  bool at_right = block.last + 1 == space.size();
  if (at_left && at_right) return std::nullopt;
  Predicate pred;
  pred.attribute = attribute;
  if (at_left) {
    pred.type = PredicateType::kLessThan;
    pred.high = space.upper_bound(block.last);
  } else if (at_right) {
    pred.type = PredicateType::kGreaterThan;
    pred.low = space.lower_bound(block.first);
  } else {
    pred.type = PredicateType::kRange;
    pred.low = space.lower_bound(block.first);
    pred.high = space.upper_bound(block.last);
  }
  return pred;
}

/// Per-attribute result: at most one extracted predicate and at most one
/// data-quality warning (an attribute can be skipped-with-warning,
/// diagnosed-with-warning, diagnosed clean, or silently uninformative).
struct AttributeOutcome {
  std::optional<AttributeDiagnosis> diagnosis;
  std::optional<DataQualityWarning> warning;
};

DataQualityWarning MakeQualityWarning(const std::string& attribute,
                                      const AttributeProfile& profile,
                                      bool skipped) {
  DataQualityWarning warning;
  warning.attribute = attribute;
  warning.bad_fraction = 1.0 - profile.quality();
  warning.skipped = skipped;
  warning.reason = common::StrFormat(
      "%s: %.1f%% of diagnosis rows non-finite",
      skipped ? "skipped" : "used with bad cells masked",
      100.0 * warning.bad_fraction);
  return warning;
}

/// Algorithm 1 for one attribute: the fused sweep (ProfileAttribute) feeds
/// the theta check, the partition-space range, and the gap anchor, so the
/// column is scanned once where the serial historical code scanned it three
/// times. Degradation contract: an attribute too corrupted to trust
/// (quality below min_attribute_quality) is skipped with a warning rather
/// than allowed to emit a garbage predicate; an attribute with some bad
/// cells is diagnosed over its finite cells only, and says so.
AttributeOutcome DiagnoseAttribute(const tsdata::Dataset& dataset,
                                   const DiagnosisRuns& runs, size_t attr,
                                   const PredicateGenOptions& options) {
  const tsdata::AttributeSpec& spec = dataset.schema().attribute(attr);
  const tsdata::Column& col = dataset.column(attr);
  AttributeOutcome out;

  std::optional<Predicate> pred;
  std::optional<PartitionSpace> space;
  double normalized_diff = 0.0;

  if (col.kind() == tsdata::AttributeKind::kNumeric) {
    std::span<const double> values = col.numeric_values();
    AttributeProfile profile;
    {
      TRACE_SPAN("predgen.profile_sweep");
      profile = ProfileAttribute(values, runs);
    }
    if (profile.non_finite_count > 0) {
      bool skip = options.min_attribute_quality > 0.0 &&
                  profile.quality() < options.min_attribute_quality;
      out.warning = MakeQualityWarning(spec.name, profile, skip);
      if (skip) {
        static common::Counter* skipped =
            common::MetricsRegistry::Global().GetCounter(
                "predgen.attributes_skipped_quality");
        skipped->Increment();
        return out;
      }
    }
    if (!profile.valid || profile.max <= profile.min) return out;

    // Normalization + thresholding (Section 4.5): the attribute must move
    // its normalized mean by more than theta between the two regions.
    double mu_a = common::MinMaxNormalize(profile.abnormal_mean(), profile.min,
                                          profile.max);
    double mu_n = common::MinMaxNormalize(profile.normal_mean(), profile.min,
                                          profile.max);
    normalized_diff = std::fabs(mu_a - mu_n);
    if (normalized_diff <= options.normalized_diff_threshold) {
      return out;
    }

    {
      TRACE_SPAN("predgen.partition_space");
      space = BuildFinalPartitionSpace(dataset, runs, attr, options, &profile);
    }
    if (!space.has_value()) return out;
    std::optional<AbnormalBlock> block = SingleAbnormalBlock(*space);
    if (!block.has_value()) return out;
    pred = PredicateFromBlock(*space, *block, spec.name);
  } else {
    space = BuildFinalPartitionSpace(dataset, runs, attr, options);
    if (!space.has_value()) return out;
    // Categorical: collect every Abnormal partition's category.
    Predicate p;
    p.attribute = spec.name;
    p.type = PredicateType::kInSet;
    for (size_t j = 0; j < space->size(); ++j) {
      if (space->label(j) == PartitionLabel::kAbnormal) {
        p.categories.push_back(space->category(j));
      }
    }
    if (!p.categories.empty()) pred = std::move(p);
  }

  if (!pred.has_value()) return out;
  AttributeDiagnosis diag;
  diag.predicate = std::move(*pred);
  diag.separation_power = SeparationPower(diag.predicate, dataset, runs);
  diag.partition_separation_power =
      PartitionSeparationPower(diag.predicate, *space);
  diag.normalized_mean_diff = normalized_diff;
  out.diagnosis = std::move(diag);
  return out;
}

}  // namespace

AttributeProfile ProfileAttribute(std::span<const double> values,
                                  const DiagnosisRuns& runs) {
  namespace simd = common::simd;
  AttributeProfile profile;
  bool first = true;
  auto fold = [&](const std::vector<RowRun>& region_runs, double* sum,
                  size_t* count) {
    for (const RowRun& run : region_runs) {
      simd::SpanProfile p =
          simd::ProfileSpan(values.data() + run.begin, run.size());
      profile.non_finite_count += p.non_finite_count;
      *sum += p.sum;
      *count += p.finite_count;
      if (p.finite_count == 0) continue;
      if (first) {
        profile.min = p.min;
        profile.max = p.max;
        first = false;
      } else {
        profile.min = std::min(profile.min, p.min);
        profile.max = std::max(profile.max, p.max);
      }
    }
  };
  fold(runs.abnormal, &profile.abnormal_sum, &profile.abnormal_count);
  fold(runs.normal, &profile.normal_sum, &profile.normal_count);
  profile.valid = !first;
  return profile;
}

std::vector<Predicate> PredicateGenResult::PredicateList() const {
  std::vector<Predicate> out;
  out.reserve(predicates.size());
  for (const auto& d : predicates) out.push_back(d.predicate);
  return out;
}

const AttributeDiagnosis* PredicateGenResult::Find(
    const std::string& attribute) const {
  for (const auto& d : predicates) {
    if (d.predicate.attribute == attribute) return &d;
  }
  return nullptr;
}

std::optional<PartitionSpace> BuildLabeledPartitionSpace(
    const tsdata::Dataset& dataset, const DiagnosisRuns& runs,
    size_t attr_index, const PredicateGenOptions& options,
    const AttributeProfile* profile) {
  if (runs.abnormal_rows == 0 || runs.normal_rows == 0) return std::nullopt;
  const tsdata::Column& col = dataset.column(attr_index);

  if (col.kind() == tsdata::AttributeKind::kNumeric) {
    std::span<const double> values = col.numeric_values();
    AttributeProfile local;
    if (profile == nullptr) {
      local = ProfileAttribute(values, runs);
      profile = &local;
    }
    if (!profile->valid || profile->max <= profile->min) return std::nullopt;

    PartitionSpace space = PartitionSpace::Numeric(profile->min, profile->max,
                                                   options.num_partitions);
    LabelNumericPartitions(values, runs, &space);
    return space;
  }

  // Categorical: one partition per distinct value (Section 4.2; filtering
  // and gap filling never apply to categorical data).
  std::vector<std::string> categories;
  categories.reserve(col.num_categories());
  for (size_t c = 0; c < col.num_categories(); ++c) {
    categories.push_back(col.CategoryName(static_cast<int32_t>(c)));
  }
  if (categories.empty()) return std::nullopt;
  PartitionSpace space = PartitionSpace::Categorical(std::move(categories));
  LabelCategoricalPartitions(col.codes(), runs, &space);
  return space;
}

std::optional<PartitionSpace> BuildFinalPartitionSpace(
    const tsdata::Dataset& dataset, const DiagnosisRuns& runs,
    size_t attr_index, const PredicateGenOptions& options,
    const AttributeProfile* profile) {
  std::optional<PartitionSpace> space =
      BuildLabeledPartitionSpace(dataset, runs, attr_index, options, profile);
  if (!space.has_value() || !space->is_numeric()) return space;

  TRACE_SPAN("predgen.filter_gap_fill");
  if (options.enable_filtering) FilterPartitions(&*space);
  if (options.enable_gap_filling) {
    AttributeProfile local;
    if (profile == nullptr) {
      local = ProfileAttribute(dataset.column(attr_index).numeric_values(),
                               runs);
      profile = &local;
    }
    FillPartitionGaps(&*space, options.anomaly_distance_multiplier,
                      profile->normal_mean());
  }
  return space;
}

double PartitionSeparationPower(const Predicate& predicate,
                                const PartitionSpace& space) {
  size_t abnormal_total = 0;
  size_t abnormal_hits = 0;
  size_t normal_total = 0;
  size_t normal_hits = 0;
  for (size_t j = 0; j < space.size(); ++j) {
    PartitionLabel label = space.label(j);
    if (label == PartitionLabel::kEmpty) continue;
    bool hit = space.is_numeric()
                   ? predicate.MatchesNumeric(space.mid_value(j))
                   : predicate.MatchesCategory(space.category(j));
    if (label == PartitionLabel::kAbnormal) {
      ++abnormal_total;
      if (hit) ++abnormal_hits;
    } else {
      ++normal_total;
      if (hit) ++normal_hits;
    }
  }
  if (abnormal_total == 0 || normal_total == 0) return 0.0;
  return static_cast<double>(abnormal_hits) /
             static_cast<double>(abnormal_total) -
         static_cast<double>(normal_hits) / static_cast<double>(normal_total);
}

PredicateGenResult GeneratePredicates(const tsdata::Dataset& dataset,
                                      const tsdata::DiagnosisRegions& regions,
                                      const PredicateGenOptions& options) {
  return GeneratePredicates(
      dataset, BuildDiagnosisRuns(SplitRows(dataset, regions)), options);
}

PredicateGenResult GeneratePredicates(const tsdata::Dataset& dataset,
                                      const DiagnosisRuns& runs,
                                      const PredicateGenOptions& options) {
  TRACE_SPAN("explainer.predicate_generation");
  static common::Counter* emitted =
      common::MetricsRegistry::Global().GetCounter(
          "predgen.predicates_emitted");
  PredicateGenResult result;
  if (runs.abnormal_rows == 0 || runs.normal_rows == 0) return result;

  // Every attribute's profile/labeling/separation sweep shares the one
  // run decomposition (the kernels stream each run as one contiguous
  // column span). Attributes are independent (Section 4 treats each in
  // isolation), so the loop fans out; merging in attribute order keeps the
  // output identical to the serial path.
  std::vector<AttributeOutcome> per_attr = common::ParallelMap(
      dataset.num_attributes(),
      [&](size_t attr) {
        NoteDiagnosisRunsReused();
        return DiagnoseAttribute(dataset, runs, attr, options);
      },
      options.parallelism);
  for (AttributeOutcome& outcome : per_attr) {
    if (outcome.diagnosis.has_value()) {
      result.predicates.push_back(std::move(*outcome.diagnosis));
    }
    if (outcome.warning.has_value()) {
      result.warnings.push_back(std::move(*outcome.warning));
    }
  }

  std::stable_sort(result.predicates.begin(), result.predicates.end(),
                   [](const AttributeDiagnosis& a, const AttributeDiagnosis& b) {
                     return a.separation_power > b.separation_power;
                   });
  emitted->Increment(result.predicates.size());
  return result;
}

}  // namespace dbsherlock::core
