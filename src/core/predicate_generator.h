#ifndef DBSHERLOCK_CORE_PREDICATE_GENERATOR_H_
#define DBSHERLOCK_CORE_PREDICATE_GENERATOR_H_

#include <optional>
#include <span>
#include <vector>

#include "core/partition_space.h"
#include "core/predicate.h"
#include "tsdata/dataset.h"
#include "tsdata/region.h"

namespace dbsherlock::core {

/// Tuning parameters of the predicate-generation algorithm (Algorithm 1).
/// Defaults follow the paper's Appendix D experiment configuration
/// {R, delta, theta} = {250, 10, 0.2}; Section 4.1's R=1000 default is
/// available by just setting num_partitions.
struct PredicateGenOptions {
  /// R: number of equi-width partitions for numeric attributes.
  size_t num_partitions = 250;
  /// theta: minimum |mu_A - mu_N| of the min-max-normalized attribute for a
  /// predicate to be extracted (Section 4.5).
  double normalized_diff_threshold = 0.2;
  /// delta: anomaly distance multiplier for gap filling (Section 4.4).
  double anomaly_distance_multiplier = 10.0;
  /// Ablation switches for Table 6 (Appendix D): disable the Partition
  /// Filtering and/or Filling-the-Gaps steps.
  bool enable_filtering = true;
  bool enable_gap_filling = true;
  /// Degree of parallelism for the per-attribute loop here and the
  /// per-model loop in ModelRepository::Rank: 0 = one lane per hardware
  /// thread, 1 = exact serial path, N = N lanes. Results are identical for
  /// every value (ordered merge; see common/parallel.h).
  size_t parallelism = 0;
  /// Graceful-degradation threshold: a numeric attribute whose fraction of
  /// finite values over the diagnosis rows falls below this is skipped
  /// (with a DataQualityWarning) instead of fed garbage-in to the
  /// partition machinery. 0 disables the gate (NaN/Inf cells are still
  /// excluded from every statistic).
  double min_attribute_quality = 0.75;
};

/// A per-attribute trust note attached to a diagnosis: the engine either
/// skipped the attribute entirely or computed around bad cells. Hostile
/// telemetry must never silently shape an explanation.
struct DataQualityWarning {
  std::string attribute;
  /// Human-readable reason ("skipped: 61.0% of diagnosis rows non-finite").
  std::string reason;
  /// Fraction of the attribute's diagnosis-row cells that were non-finite.
  double bad_fraction = 0.0;
  /// True when the attribute was excluded from diagnosis; false when it
  /// was used but with bad cells masked out of its statistics.
  bool skipped = false;
};

/// Single-pass statistics of one numeric attribute over the diagnosis rows
/// (abnormal ∪ normal; ignored rows never shape the partition space,
/// Section 4). One sweep feeds everything downstream that used to rescan
/// the column: the partition-space range, the theta normalization check of
/// Section 4.5, and the gap-filling normal anchor of Section 4.4.
///
/// NaN/Inf cells never enter min/max or the region sums; they are counted
/// in `non_finite_count` so callers can gate on quality().
struct AttributeProfile {
  double min = 0.0;
  double max = 0.0;
  double abnormal_sum = 0.0;
  double normal_sum = 0.0;
  /// Finite cells per region (the denominators of the region means).
  size_t abnormal_count = 0;
  size_t normal_count = 0;
  /// NaN/Inf cells across both regions.
  size_t non_finite_count = 0;
  /// False when no finite value was seen (min/max are then meaningless).
  bool valid = false;

  double abnormal_mean() const {
    return abnormal_count == 0
               ? 0.0
               : abnormal_sum / static_cast<double>(abnormal_count);
  }
  double normal_mean() const {
    return normal_count == 0 ? 0.0
                             : normal_sum / static_cast<double>(normal_count);
  }
  /// Fraction of diagnosis-row cells that were finite; 1.0 when no rows.
  double quality() const {
    size_t total = abnormal_count + normal_count + non_finite_count;
    return total == 0 ? 1.0
                      : static_cast<double>(abnormal_count + normal_count) /
                            static_cast<double>(total);
  }
};

/// Profiles each run of diagnosis rows with the dispatched ProfileSpan
/// kernel and combines the per-run results, abnormal runs first, then
/// normal. The sums follow the kernels' lane discipline, which every ISA
/// shares, so the profile is the same on every host.
AttributeProfile ProfileAttribute(std::span<const double> values,
                                  const DiagnosisRuns& runs);

/// One extracted predicate plus its quality measures.
struct AttributeDiagnosis {
  Predicate predicate;
  /// Eq. (1) separation power over the input tuples.
  double separation_power = 0.0;
  /// Separation power over the final partition space (the quantity averaged
  /// by causal-model confidence, Eq. (3)).
  double partition_separation_power = 0.0;
  /// d = |mu_A - mu_N| of the normalized attribute (numeric; 0 otherwise).
  double normalized_mean_diff = 0.0;
};

/// Output of the generator: the conjunct of candidate predicates, in
/// descending separation-power order, plus the data-quality warnings
/// accumulated while computing them (attribute order).
struct PredicateGenResult {
  std::vector<AttributeDiagnosis> predicates;
  std::vector<DataQualityWarning> warnings;

  /// Convenience: just the predicates.
  std::vector<Predicate> PredicateList() const;
  /// The diagnosis for `attribute`, if one was extracted.
  const AttributeDiagnosis* Find(const std::string& attribute) const;
};

/// Runs Algorithm 1 over every attribute of `dataset` and returns the
/// extracted predicates. Returns an empty result when either region holds
/// no rows.
PredicateGenResult GeneratePredicates(const tsdata::Dataset& dataset,
                                      const tsdata::DiagnosisRegions& regions,
                                      const PredicateGenOptions& options);

/// As above, over the run decomposition of rows the caller already split
/// (Explainer::Diagnose builds it once and also ranks models over it).
PredicateGenResult GeneratePredicates(const tsdata::Dataset& dataset,
                                      const DiagnosisRuns& runs,
                                      const PredicateGenOptions& options);

/// Builds the final labeled partition space (label -> filter -> fill) for
/// one attribute, as used by predicate extraction. Returns std::nullopt for
/// constant numeric attributes or when either region holds no rows.
/// `profile`, when supplied, must be ProfileAttribute() of this attribute's
/// values over `runs`; it spares the extra column sweeps (numeric only).
std::optional<PartitionSpace> BuildFinalPartitionSpace(
    const tsdata::Dataset& dataset, const DiagnosisRuns& runs,
    size_t attr_index, const PredicateGenOptions& options,
    const AttributeProfile* profile = nullptr);

/// Builds the *labeled-only* partition space (Section 4.2's labeling, no
/// filtering or gap filling) for one attribute. This is the space Eq. (3)
/// measures causal-model confidence over: only partitions that actually
/// hold purely-normal or purely-abnormal tuples count, which keeps
/// confidence meaningful even for very small abnormal regions (Appendix
/// C's two-second anomalies) and for anomaly instances whose absolute
/// levels differ from the training instance. Returns std::nullopt for
/// constant numeric attributes or when either region holds no rows.
/// `profile` as for BuildFinalPartitionSpace.
std::optional<PartitionSpace> BuildLabeledPartitionSpace(
    const tsdata::Dataset& dataset, const DiagnosisRuns& runs,
    size_t attr_index, const PredicateGenOptions& options,
    const AttributeProfile* profile = nullptr);

/// Separation power of `predicate` measured over a labeled partition space
/// (fraction of Abnormal partitions satisfied minus fraction of Normal
/// partitions satisfied; numeric partitions are tested at their midpoint).
double PartitionSeparationPower(const Predicate& predicate,
                                const PartitionSpace& space);

}  // namespace dbsherlock::core

#endif  // DBSHERLOCK_CORE_PREDICATE_GENERATOR_H_
