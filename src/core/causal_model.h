#ifndef DBSHERLOCK_CORE_CAUSAL_MODEL_H_
#define DBSHERLOCK_CORE_CAUSAL_MODEL_H_

#include <optional>
#include <string>
#include <vector>

#include "core/predicate.h"
#include "core/predicate_generator.h"
#include "tsdata/dataset.h"
#include "tsdata/region.h"

namespace dbsherlock::core {

/// A causal model (Section 6): a user-labeled cause variable plus the
/// effect predicates that were active when the cause was diagnosed — the
/// simplified Halpern-Pearl structure of Figure 6.
struct CausalModel {
  std::string cause;
  std::vector<Predicate> predicates;
  /// How many diagnosed datasets contributed (1 for a fresh model; grows
  /// when models are merged).
  int num_sources = 1;
  /// Optional remediation note recorded by the DBA when the cause was
  /// confirmed ("throttle tenant X", "re-enable adaptive flushing", ...).
  /// The paper's conclusion names storing DBA actions for future
  /// occurrences as planned future work; this field implements it. On
  /// merge, the most recently recorded non-empty action wins.
  std::string suggested_action;
};

/// Computes the confidence of `model` for the anomaly described by
/// (dataset, rows) — Eq. (3): the average separation power of the model's
/// effect predicates measured over the *partition space* of the current
/// data (not the raw tuples, to damp noise). Returned as a percentage in
/// [-100, 100]. Predicates whose attribute is missing from the dataset (or
/// constant in it) contribute zero. This is the PartitionSpaceCache
/// overload (partition_cache.h) over a cache of this one model; scoring
/// many models against the same anomaly shares one cache across them, as
/// ModelRepository::Rank does.
double ModelConfidence(const CausalModel& model,
                       const tsdata::Dataset& dataset,
                       const tsdata::LabeledRows& rows,
                       const PredicateGenOptions& options);

/// Merges two predicates on the same attribute (Section 6.2): numeric
/// boundaries widen to include both ({A>10, A>15} -> A>10); predicates with
/// conflicting directions are inconsistent and yield nullopt; categorical
/// sets intersect ({xx,yy,zz} ∩ {xx,zz} -> {xx,zz}, per the paper's
/// example), yielding nullopt when the intersection is empty.
std::optional<Predicate> MergePredicates(const Predicate& a,
                                         const Predicate& b);

/// Merges two causal models with the same cause (Section 6.2): keeps only
/// attributes common to both, merging their predicates; attributes whose
/// predicates are inconsistent are dropped. Returns an error when the
/// causes differ.
common::Result<CausalModel> MergeCausalModels(const CausalModel& a,
                                              const CausalModel& b);

}  // namespace dbsherlock::core

#endif  // DBSHERLOCK_CORE_CAUSAL_MODEL_H_
