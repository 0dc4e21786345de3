#ifndef DBSHERLOCK_EVAL_EXPERIMENT_H_
#define DBSHERLOCK_EVAL_EXPERIMENT_H_

#include <string>
#include <vector>

#include "common/random.h"
#include "core/causal_model.h"
#include "core/explainer.h"
#include "core/model_repository.h"
#include "simulator/dataset_gen.h"

namespace dbsherlock::eval {

/// Precision / recall / F1 of a predicate conjunct evaluated over tuples:
/// a row is predicted abnormal when it satisfies every predicate, and the
/// ground truth is the dataset's abnormal region (the paper's accuracy
/// metric for Figures 7 and 9).
struct PredicateAccuracy {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
};

PredicateAccuracy EvaluatePredicates(
    const std::vector<core::Predicate>& predicates,
    const tsdata::Dataset& dataset, const tsdata::DiagnosisRegions& truth);

/// Same, for a row-flag vector (used by the PerfXplain comparison).
PredicateAccuracy EvaluateFlags(const std::vector<bool>& flags,
                                const tsdata::Dataset& dataset,
                                const tsdata::DiagnosisRegions& truth);

/// The full experiment corpus of Section 8.2: 11 datasets (anomaly
/// durations 30..80 s) for each of the 10 anomaly classes.
struct Corpus {
  /// by_class[c] holds the 11 datasets of class AllAnomalyKinds()[c].
  std::vector<std::vector<simulator::GeneratedDataset>> by_class;

  size_t num_classes() const { return by_class.size(); }
  const std::string ClassName(size_t c) const {
    return simulator::AnomalyKindName(simulator::AllAnomalyKinds()[c]);
  }
};

/// Generates the corpus (110 datasets for TPC-C defaults). `options.seed`
/// controls every dataset's stream.
Corpus GenerateCorpus(const simulator::DatasetGenOptions& options);

/// Builds a single-dataset causal model for `dataset`, labeled `cause`
/// (Section 8.3 constructs these with theta = 0.2). Domain-knowledge
/// pruning is applied when `knowledge` is non-null.
core::CausalModel BuildCausalModel(
    const simulator::GeneratedDataset& dataset, const std::string& cause,
    const core::PredicateGenOptions& options,
    const core::DomainKnowledge* knowledge = nullptr,
    const core::IndependenceTestOptions& independence = {});

/// One simulated tenant of a service drill: its stream and the cause the
/// stream carries.
struct TenantPlan {
  std::string name;  // "tenant<i>"
  simulator::GeneratedDataset data;
  std::string cause;
};

/// What a service drill streams and teaches.
struct TenantWorkload {
  std::vector<TenantPlan> tenants;
  std::vector<core::CausalModel> models;  // taught offline, TEACH order
};

/// Tenant i streams kinds[i % kinds.size()] from seed gen.seed + 17i + 1.
/// Each distinct cause among the tenants gets `train_sets_per_cause`
/// (at least 1) models, each built from its own stream (seeds from
/// gen.seed + 100003) with `explainer`'s predicate, domain-knowledge and
/// independence options. Requires a non-empty `kinds`.
TenantWorkload PlanTenants(const std::vector<simulator::AnomalyKind>& kinds,
                           size_t num_tenants,
                           const simulator::DatasetGenOptions& gen,
                           double anomaly_duration_sec,
                           double anomaly_magnitude,
                           size_t train_sets_per_cause,
                           const core::Explainer::Options& explainer);

/// Builds one merged model per class from the datasets at `train_indices`
/// and returns a repository holding all of them.
core::ModelRepository BuildMergedRepository(
    const Corpus& corpus, const std::vector<std::vector<size_t>>& train_indices,
    const core::PredicateGenOptions& options,
    const core::DomainKnowledge* knowledge = nullptr);

/// Confidence of `model` on a generated dataset (wraps ModelConfidence).
double ConfidenceOn(const core::CausalModel& model,
                    const simulator::GeneratedDataset& dataset,
                    const core::PredicateGenOptions& options);

/// Result of ranking all stored causes against one dataset.
struct RankingOutcome {
  std::vector<core::RankedCause> ranked;  // descending confidence
  /// Confidence of the correct cause minus the best incorrect confidence
  /// (the paper's "margin of confidence"; negative when an incorrect cause
  /// ranks first). Uses the unfiltered rankings (no lambda cutoff).
  double margin = 0.0;
  /// 1-based position of the correct cause, or 0 when absent entirely.
  size_t correct_rank = 0;

  bool CorrectInTopK(size_t k) const {
    return correct_rank >= 1 && correct_rank <= k;
  }
};

RankingOutcome RankAgainst(const core::ModelRepository& repository,
                           const simulator::GeneratedDataset& dataset,
                           const std::string& correct_cause,
                           const core::PredicateGenOptions& options);

/// Random split helper: picks `train_count` distinct indices out of `n`
/// for every class, using `rng`.
std::vector<std::vector<size_t>> RandomTrainSplit(size_t num_classes,
                                                  size_t n, size_t train_count,
                                                  common::Pcg32* rng);

/// Complement of a train split ({0..n-1} minus train).
std::vector<size_t> TestIndices(const std::vector<size_t>& train, size_t n);

}  // namespace dbsherlock::eval

#endif  // DBSHERLOCK_EVAL_EXPERIMENT_H_
