#ifndef DBSHERLOCK_CORE_MODEL_REPOSITORY_H_
#define DBSHERLOCK_CORE_MODEL_REPOSITORY_H_

#include <string>
#include <vector>

#include "core/causal_model.h"

namespace dbsherlock::core {

/// A cause together with the confidence its model achieved on the anomaly
/// under diagnosis, and any remediation the DBA recorded previously.
struct RankedCause {
  std::string cause;
  double confidence = 0.0;  // percentage, Eq. (3)
  std::string suggested_action;
};

/// Stores the causal models accumulated from past diagnoses (Section 6).
/// Models added for a cause that already has one are merged into it
/// (Section 6.2), so the repository holds at most one model per cause.
class ModelRepository {
 public:
  ModelRepository() = default;

  /// Adds `model`. If a model with the same cause exists, the two are
  /// merged; if the merge leaves no predicates, the *new* model replaces
  /// the old one (a degenerate merge carries no information).
  void Add(CausalModel model);

  /// Adds `model` without merging (keeps multiple models per cause);
  /// used by experiments that compare single vs merged models.
  void AddUnmerged(CausalModel model);

  size_t size() const { return models_.size(); }
  bool empty() const { return models_.empty(); }
  const std::vector<CausalModel>& models() const { return models_; }

  /// The model for `cause`, or nullptr.
  const CausalModel* Find(const std::string& cause) const;

  /// Computes every model's confidence for the given anomaly and returns
  /// causes in decreasing confidence order, keeping only those above
  /// `lambda` (the paper's confidence bar, percent; Explainer::Options::
  /// confidence_threshold, default 20). When multiple unmerged models
  /// share a cause, the cause's confidence is the maximum over its models.
  std::vector<RankedCause> Rank(const tsdata::Dataset& dataset,
                                const DiagnosisRuns& runs,
                                const PredicateGenOptions& options,
                                double lambda) const;

  /// As above, over the runs of `rows`.
  std::vector<RankedCause> Rank(const tsdata::Dataset& dataset,
                                const tsdata::LabeledRows& rows,
                                const PredicateGenOptions& options,
                                double lambda) const;

 private:
  std::vector<CausalModel> models_;
};

}  // namespace dbsherlock::core

#endif  // DBSHERLOCK_CORE_MODEL_REPOSITORY_H_
