#include "core/partition_cache.h"

#include <algorithm>
#include <vector>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/trace.h"

namespace dbsherlock::core {

namespace {

/// Cache-wide counters; instruments live in the process registry, so the
/// pointers are fetched once and shared by every cache instance.
struct CacheMetrics {
  common::Counter* hits;
  common::Counter* misses;
  common::Counter* entries_built;
  common::Counter* evictions;

  static const CacheMetrics& Get() {
    static const CacheMetrics metrics = [] {
      common::MetricsRegistry& reg = common::MetricsRegistry::Global();
      return CacheMetrics{reg.GetCounter("partition_cache.hits"),
                          reg.GetCounter("partition_cache.misses"),
                          reg.GetCounter("partition_cache.entries_built"),
                          reg.GetCounter("partition_cache.evictions")};
    }();
    return metrics;
  }
};

}  // namespace

std::optional<PartitionSpace> BuildConfidenceSpace(
    const tsdata::Dataset& dataset, const DiagnosisRuns& runs,
    size_t attr_index, const PredicateGenOptions& options) {
  if (runs.abnormal_rows == 0 || runs.normal_rows == 0) return std::nullopt;
  const tsdata::Column& col = dataset.column(attr_index);
  if (col.kind() != tsdata::AttributeKind::kNumeric) {
    return BuildLabeledPartitionSpace(dataset, runs, attr_index, options);
  }
  AttributeProfile profile = ProfileAttribute(col.numeric_values(), runs);
  // Same degradation gate as predicate generation: an attribute too
  // corrupted to trust contributes 0 to every model's confidence rather
  // than a separation power computed from mostly-missing data.
  if (options.min_attribute_quality > 0.0 &&
      profile.quality() < options.min_attribute_quality) {
    return std::nullopt;
  }
  std::optional<PartitionSpace> space =
      BuildLabeledPartitionSpace(dataset, runs, attr_index, options, &profile);
  if (space.has_value()) {
    PlantNormalAnchorIfNeeded(&*space, profile.normal_mean());
  }
  return space;
}

PartitionSpaceCache::PartitionSpaceCache(const tsdata::Dataset& dataset,
                                         const DiagnosisRuns& runs,
                                         const PredicateGenOptions& options)
    : dataset_(dataset), runs_(runs), options_(options) {}

PartitionSpaceCache::~PartitionSpaceCache() {
  CacheMetrics::Get().evictions->Increment(spaces_.size());
}

void PartitionSpaceCache::Prepare(std::span<const CausalModel> models) {
  TRACE_SPAN("partition_cache.prepare");
  // Distinct resolvable attribute indices, in first-reference order.
  std::vector<size_t> attrs;
  for (const CausalModel& model : models) {
    for (const Predicate& pred : model.predicates) {
      auto attr = dataset_.schema().IndexOf(pred.attribute);
      if (!attr.ok()) continue;
      if (spaces_.find(*attr) != spaces_.end()) continue;
      if (std::find(attrs.begin(), attrs.end(), *attr) != attrs.end()) {
        continue;
      }
      attrs.push_back(*attr);
    }
  }
  std::vector<std::optional<PartitionSpace>> built = common::ParallelMap(
      attrs.size(),
      [&](size_t i) {
        NoteDiagnosisRunsReused();
        return BuildConfidenceSpace(dataset_, runs_, attrs[i], options_);
      },
      options_.parallelism);
  for (size_t i = 0; i < attrs.size(); ++i) {
    spaces_.emplace(attrs[i], std::move(built[i]));
  }
  CacheMetrics::Get().entries_built->Increment(attrs.size());
}

const std::optional<PartitionSpace>* PartitionSpaceCache::Find(
    const std::string& attribute) const {
  auto attr = dataset_.schema().IndexOf(attribute);
  if (!attr.ok()) {
    CacheMetrics::Get().misses->Increment();
    return nullptr;
  }
  auto it = spaces_.find(*attr);
  if (it == spaces_.end()) {
    CacheMetrics::Get().misses->Increment();
    return nullptr;
  }
  CacheMetrics::Get().hits->Increment();
  return &it->second;
}

double ModelConfidence(const CausalModel& model,
                       const PartitionSpaceCache& cache) {
  if (model.predicates.empty()) return 0.0;
  double total = 0.0;
  for (const Predicate& pred : model.predicates) {
    const std::optional<PartitionSpace>* space = cache.Find(pred.attribute);
    if (space == nullptr || !space->has_value()) continue;  // contributes 0
    total += PartitionSeparationPower(pred, **space);
  }
  return 100.0 * total / static_cast<double>(model.predicates.size());
}

}  // namespace dbsherlock::core
