#include "core/causal_model.h"

#include <algorithm>

#include "core/partition_cache.h"

namespace dbsherlock::core {

double ModelConfidence(const CausalModel& model,
                       const tsdata::Dataset& dataset,
                       const tsdata::LabeledRows& rows,
                       const PredicateGenOptions& options) {
  DiagnosisRuns runs = BuildDiagnosisRuns(rows);
  PartitionSpaceCache cache(dataset, runs, options);
  cache.Prepare(std::span<const CausalModel>(&model, 1));
  return ModelConfidence(model, cache);
}

namespace {

/// Widened numeric merge; assumes both predicates are numeric and on the
/// same attribute. Returns nullopt for conflicting directions.
std::optional<Predicate> MergeNumeric(const Predicate& a,
                                      const Predicate& b) {
  bool a_has_low = a.type != PredicateType::kLessThan;
  bool a_has_high = a.type != PredicateType::kGreaterThan;
  bool b_has_low = b.type != PredicateType::kLessThan;
  bool b_has_high = b.type != PredicateType::kGreaterThan;

  // A pure > merged with a pure < points in opposite directions.
  if ((a.type == PredicateType::kGreaterThan &&
       b.type == PredicateType::kLessThan) ||
      (a.type == PredicateType::kLessThan &&
       b.type == PredicateType::kGreaterThan)) {
    return std::nullopt;
  }

  Predicate out;
  out.attribute = a.attribute;
  // The merged predicate must include both regions: keep a bound only when
  // both sides constrain that direction, and widen it.
  bool has_low = a_has_low && b_has_low;
  bool has_high = a_has_high && b_has_high;
  if (has_low && has_high) {
    out.type = PredicateType::kRange;
    out.low = std::min(a.low, b.low);
    out.high = std::max(a.high, b.high);
  } else if (has_low) {
    out.type = PredicateType::kGreaterThan;
    out.low = std::min(a.low, b.low);
  } else if (has_high) {
    out.type = PredicateType::kLessThan;
    out.high = std::max(a.high, b.high);
  } else {
    return std::nullopt;  // unconstrained in both directions
  }
  return out;
}

std::optional<Predicate> MergeCategorical(const Predicate& a,
                                          const Predicate& b) {
  Predicate out;
  out.attribute = a.attribute;
  out.type = PredicateType::kInSet;
  for (const std::string& c : a.categories) {
    if (std::find(b.categories.begin(), b.categories.end(), c) !=
        b.categories.end()) {
      out.categories.push_back(c);
    }
  }
  if (out.categories.empty()) return std::nullopt;
  return out;
}

}  // namespace

std::optional<Predicate> MergePredicates(const Predicate& a,
                                         const Predicate& b) {
  if (a.attribute != b.attribute) return std::nullopt;
  if (a.is_numeric() != b.is_numeric()) return std::nullopt;
  return a.is_numeric() ? MergeNumeric(a, b) : MergeCategorical(a, b);
}

common::Result<CausalModel> MergeCausalModels(const CausalModel& a,
                                              const CausalModel& b) {
  if (a.cause != b.cause) {
    return common::Status::InvalidArgument(
        "cannot merge causal models with different causes: '" + a.cause +
        "' vs '" + b.cause + "'");
  }
  CausalModel merged;
  merged.cause = a.cause;
  merged.num_sources = a.num_sources + b.num_sources;
  merged.suggested_action =
      !b.suggested_action.empty() ? b.suggested_action : a.suggested_action;
  for (const Predicate& pa : a.predicates) {
    for (const Predicate& pb : b.predicates) {
      if (pa.attribute != pb.attribute) continue;
      std::optional<Predicate> m = MergePredicates(pa, pb);
      if (m.has_value()) merged.predicates.push_back(std::move(*m));
      break;  // at most one predicate per attribute per model
    }
  }
  return merged;
}

}  // namespace dbsherlock::core
