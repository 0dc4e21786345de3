#include "core/model_repository.h"

#include <algorithm>
#include <map>
#include <span>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/trace.h"
#include "core/partition_cache.h"

namespace dbsherlock::core {

void ModelRepository::Add(CausalModel model) {
  for (CausalModel& existing : models_) {
    if (existing.cause != model.cause) continue;
    auto merged = MergeCausalModels(existing, model);
    // Causes match, so MergeCausalModels cannot fail here.
    if (merged.ok() && !merged->predicates.empty()) {
      existing = std::move(*merged);
    } else {
      // Nothing survived the merge: the anomaly instances were too
      // different. Keep the newer model rather than an empty shell.
      existing = std::move(model);
    }
    return;
  }
  models_.push_back(std::move(model));
}

void ModelRepository::AddUnmerged(CausalModel model) {
  models_.push_back(std::move(model));
}

const CausalModel* ModelRepository::Find(const std::string& cause) const {
  for (const CausalModel& m : models_) {
    if (m.cause == cause) return &m;
  }
  return nullptr;
}

std::vector<RankedCause> ModelRepository::Rank(
    const tsdata::Dataset& dataset, const tsdata::LabeledRows& rows,
    const PredicateGenOptions& options, double lambda) const {
  return Rank(dataset, BuildDiagnosisRuns(rows), options, lambda);
}

std::vector<RankedCause> ModelRepository::Rank(
    const tsdata::Dataset& dataset, const DiagnosisRuns& runs,
    const PredicateGenOptions& options, double lambda) const {
  // One partition-space build per referenced attribute for the whole
  // ranking (historically one per model per predicate), then models score
  // in parallel against the read-only cache. The best-per-cause fold stays
  // serial in model order, so results match the serial path exactly.
  TRACE_SPAN("repository.rank");
  static common::Counter* scored =
      common::MetricsRegistry::Global().GetCounter("repository.models_scored");
  PartitionSpaceCache cache(dataset, runs, options);
  cache.Prepare(std::span<const CausalModel>(models_));
  std::vector<double> confidences;
  {
    TRACE_SPAN("repository.score_models");
    confidences = common::ParallelMap(
        models_.size(),
        [&](size_t i) { return ModelConfidence(models_[i], cache); },
        options.parallelism);
  }
  scored->Increment(models_.size());

  std::map<std::string, std::pair<double, const CausalModel*>> best;
  for (size_t i = 0; i < models_.size(); ++i) {
    const CausalModel& m = models_[i];
    double confidence = confidences[i];
    auto it = best.find(m.cause);
    if (it == best.end() || confidence > it->second.first) {
      best[m.cause] = {confidence, &m};
    }
  }
  std::vector<RankedCause> ranked;
  for (const auto& [cause, entry] : best) {
    if (entry.first > lambda) {
      ranked.push_back({cause, entry.first, entry.second->suggested_action});
    }
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const RankedCause& a, const RankedCause& b) {
                     return a.confidence > b.confidence;
                   });
  return ranked;
}

}  // namespace dbsherlock::core
