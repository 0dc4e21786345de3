#include "eval/experiment.h"

#include <algorithm>
#include <limits>

#include "common/parallel.h"
#include "common/stats.h"
#include "common/strings.h"

namespace dbsherlock::eval {

PredicateAccuracy EvaluatePredicates(
    const std::vector<core::Predicate>& predicates,
    const tsdata::Dataset& dataset, const tsdata::DiagnosisRegions& truth) {
  std::vector<bool> flags(dataset.num_rows(), false);
  for (size_t row = 0; row < dataset.num_rows(); ++row) {
    flags[row] = core::ConjunctMatchesRow(predicates, dataset, row);
  }
  return EvaluateFlags(flags, dataset, truth);
}

PredicateAccuracy EvaluateFlags(const std::vector<bool>& flags,
                                const tsdata::Dataset& dataset,
                                const tsdata::DiagnosisRegions& truth) {
  common::BinaryClassificationCounts counts;
  for (size_t row = 0; row < dataset.num_rows(); ++row) {
    bool actual =
        truth.LabelOf(dataset.timestamp(row)) == tsdata::RowLabel::kAbnormal;
    counts.Add(flags[row], actual);
  }
  PredicateAccuracy acc;
  acc.precision = counts.Precision();
  acc.recall = counts.Recall();
  acc.f1 = counts.F1();
  return acc;
}

Corpus GenerateCorpus(const simulator::DatasetGenOptions& options) {
  Corpus corpus;
  for (simulator::AnomalyKind kind : simulator::AllAnomalyKinds()) {
    corpus.by_class.push_back(
        simulator::GenerateAnomalySeries(options, kind));
  }
  return corpus;
}

core::CausalModel BuildCausalModel(
    const simulator::GeneratedDataset& dataset, const std::string& cause,
    const core::PredicateGenOptions& options,
    const core::DomainKnowledge* knowledge,
    const core::IndependenceTestOptions& independence) {
  core::PredicateGenResult generated =
      core::GeneratePredicates(dataset.data, dataset.regions, options);
  std::vector<core::AttributeDiagnosis> diagnoses =
      std::move(generated.predicates);
  if (knowledge != nullptr && !knowledge->empty()) {
    diagnoses = knowledge->PruneSecondarySymptoms(
        dataset.data, std::move(diagnoses), independence);
  }
  core::CausalModel model;
  model.cause = cause;
  for (const auto& d : diagnoses) model.predicates.push_back(d.predicate);
  return model;
}

core::ModelRepository BuildMergedRepository(
    const Corpus& corpus, const std::vector<std::vector<size_t>>& train_indices,
    const core::PredicateGenOptions& options,
    const core::DomainKnowledge* knowledge) {
  core::ModelRepository repo;
  for (size_t c = 0; c < corpus.num_classes(); ++c) {
    for (size_t idx : train_indices[c]) {
      repo.Add(BuildCausalModel(corpus.by_class[c][idx],
                                corpus.ClassName(c), options, knowledge));
    }
  }
  return repo;
}

double ConfidenceOn(const core::CausalModel& model,
                    const simulator::GeneratedDataset& dataset,
                    const core::PredicateGenOptions& options) {
  tsdata::LabeledRows rows = SplitRows(dataset.data, dataset.regions);
  return core::ModelConfidence(model, dataset.data, rows, options);
}

RankingOutcome RankAgainst(const core::ModelRepository& repository,
                           const simulator::GeneratedDataset& dataset,
                           const std::string& correct_cause,
                           const core::PredicateGenOptions& options) {
  RankingOutcome out;
  tsdata::LabeledRows rows = SplitRows(dataset.data, dataset.regions);
  // No lambda cutoff here: experiments need the full ranking to compute
  // margins even when every confidence is low.
  out.ranked = repository.Rank(dataset.data, rows, options,
                               -std::numeric_limits<double>::infinity());

  double correct_conf = 0.0;
  double best_incorrect = 0.0;
  bool saw_correct = false;
  bool saw_incorrect = false;
  for (size_t i = 0; i < out.ranked.size(); ++i) {
    const core::RankedCause& rc = out.ranked[i];
    if (rc.cause == correct_cause) {
      saw_correct = true;
      correct_conf = rc.confidence;
      out.correct_rank = i + 1;
    } else if (!saw_incorrect || rc.confidence > best_incorrect) {
      saw_incorrect = true;
      best_incorrect = rc.confidence;
    }
  }
  if (saw_correct) {
    out.margin = saw_incorrect ? correct_conf - best_incorrect : correct_conf;
  } else {
    out.margin = saw_incorrect ? -best_incorrect : 0.0;
  }
  return out;
}

TenantWorkload PlanTenants(const std::vector<simulator::AnomalyKind>& kinds,
                           size_t num_tenants,
                           const simulator::DatasetGenOptions& gen,
                           double anomaly_duration_sec,
                           double anomaly_magnitude,
                           size_t train_sets_per_cause,
                           const core::Explainer::Options& explainer) {
  auto generate = [&](uint64_t seed, simulator::AnomalyKind kind) {
    simulator::DatasetGenOptions stream = gen;
    stream.seed = seed;
    return simulator::GenerateAnomalyDataset(
        stream, kind, anomaly_duration_sec, anomaly_magnitude);
  };
  TenantWorkload out;
  out.tenants = common::ParallelMap(num_tenants, [&](size_t i) {
    simulator::AnomalyKind kind = kinds[i % kinds.size()];
    return TenantPlan{common::StrFormat("tenant%zu", i),
                      generate(gen.seed + 17 * i + 1, kind),
                      simulator::AnomalyKindName(kind)};
  });
  size_t used = std::min(kinds.size(), num_tenants);
  size_t sets = std::max<size_t>(1, train_sets_per_cause);
  out.models = common::ParallelMap(used * sets, [&](size_t i) {
    simulator::AnomalyKind kind = kinds[i / sets];
    return BuildCausalModel(
        generate(gen.seed + 100003 + i, kind), simulator::AnomalyKindName(kind),
        explainer.predicate_options,
        explainer.apply_domain_knowledge ? &explainer.domain_knowledge
                                         : nullptr,
        explainer.independence_options);
  });
  return out;
}

std::vector<std::vector<size_t>> RandomTrainSplit(size_t num_classes,
                                                  size_t n, size_t train_count,
                                                  common::Pcg32* rng) {
  std::vector<std::vector<size_t>> out;
  out.reserve(num_classes);
  for (size_t c = 0; c < num_classes; ++c) {
    std::vector<size_t> picked = rng->SampleIndices(n, train_count);
    std::sort(picked.begin(), picked.end());
    out.push_back(std::move(picked));
  }
  return out;
}

std::vector<size_t> TestIndices(const std::vector<size_t>& train, size_t n) {
  std::vector<size_t> out;
  for (size_t i = 0; i < n; ++i) {
    if (std::find(train.begin(), train.end(), i) == train.end()) {
      out.push_back(i);
    }
  }
  return out;
}

}  // namespace dbsherlock::eval
