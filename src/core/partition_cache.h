#ifndef DBSHERLOCK_CORE_PARTITION_CACHE_H_
#define DBSHERLOCK_CORE_PARTITION_CACHE_H_

#include <optional>
#include <span>
#include <unordered_map>

#include "core/causal_model.h"
#include "core/partition_space.h"
#include "core/predicate_generator.h"
#include "tsdata/dataset.h"
#include "tsdata/region.h"

namespace dbsherlock::core {

/// The labeled partition spaces Eq. (3) confidence is measured over, keyed
/// by attribute index and shared across every causal model of one
/// ModelRepository::Rank call. Without it, ranking labels the identical
/// space once per (model, predicate) — quadratic in repository size for
/// merged repositories whose models reference overlapping attributes; with
/// it, each attribute is profiled and labeled exactly once per inquiry.
///
/// Lifetime and invalidation: a cache is valid only for one (dataset, run
/// decomposition, options) triple, all of which are immutable during a
/// diagnosis and must outlive the cache, so the cache lives at most for
/// one Rank call and is never invalidated — it is simply discarded.
/// Entries are BuildConfidenceSpace's spaces, skewed-attribute normal
/// anchor included.
///
/// Threading: Prepare() builds all entries (fanning out over attributes);
/// afterwards the cache is read-only, so concurrent Find()/Get() from the
/// parallel model-scoring loop need no locks.
class PartitionSpaceCache {
 public:
  /// Every entry's sweeps share `runs`, the diagnosis' one decomposition.
  PartitionSpaceCache(const tsdata::Dataset& dataset,
                      const DiagnosisRuns& runs,
                      const PredicateGenOptions& options);
  PartitionSpaceCache(const tsdata::Dataset&, DiagnosisRuns&&,
                      const PredicateGenOptions&) = delete;

  /// Counts the discarded entries as `partition_cache.evictions` (this
  /// cache never evicts mid-inquiry; entries die with the Rank call).
  ~PartitionSpaceCache();

  PartitionSpaceCache(const PartitionSpaceCache&) = delete;
  PartitionSpaceCache& operator=(const PartitionSpaceCache&) = delete;

  /// Builds the space of every attribute referenced by any predicate of any
  /// model in `models`, in parallel (options.parallelism lanes). Attributes
  /// missing from the dataset's schema are skipped (their predicates later
  /// contribute zero confidence, as before).
  void Prepare(std::span<const CausalModel> models);

  /// The cached space for the attribute named by `attribute`, or nullptr
  /// when the attribute is unknown to the schema or was not Prepare()d.
  /// The pointee is nullopt for attributes with no buildable space
  /// (constant numeric columns, empty regions).
  const std::optional<PartitionSpace>* Find(const std::string& attribute) const;

 private:
  const tsdata::Dataset& dataset_;
  const DiagnosisRuns& runs_;
  const PredicateGenOptions& options_;
  std::unordered_map<size_t, std::optional<PartitionSpace>> spaces_;
};

/// One attribute's confidence space (the space Eq. (3) measures separation
/// power over): the labeled-only partition space of
/// BuildLabeledPartitionSpace plus, for heavily skewed numeric attributes,
/// the planted normal anchor (PlantNormalAnchorIfNeeded). One fused
/// profile sweep feeds both the space range and the anchor mean. Returns
/// std::nullopt where BuildLabeledPartitionSpace does, and for an attribute
/// below options.min_attribute_quality.
std::optional<PartitionSpace> BuildConfidenceSpace(
    const tsdata::Dataset& dataset, const DiagnosisRuns& runs,
    size_t attr_index, const PredicateGenOptions& options);

/// Eq. (3) confidence of `model` against the anomaly captured by `cache`
/// (see ModelConfidence in causal_model.h), reading every partition space
/// from the cache. `cache` must already be Prepare()d with a model set that
/// covers `model`; safe to call concurrently for different models.
double ModelConfidence(const CausalModel& model,
                       const PartitionSpaceCache& cache);

}  // namespace dbsherlock::core

#endif  // DBSHERLOCK_CORE_PARTITION_CACHE_H_
