#include "core/explainer.h"

#include "common/metrics.h"
#include "common/trace.h"

namespace dbsherlock::core {

std::string Explanation::PredicatesToString() const {
  std::string out;
  for (size_t i = 0; i < predicates.size(); ++i) {
    if (i > 0) out += " AND ";
    out += predicates[i].predicate.ToString();
  }
  return out;
}

std::string Explanation::WarningsToString() const {
  std::string out;
  for (const DataQualityWarning& w : warnings) {
    out += w.attribute + ": " + w.reason + "\n";
  }
  return out;
}

Explanation Explainer::Diagnose(const tsdata::Dataset& dataset,
                                const tsdata::DiagnosisRegions& regions) const {
  return Diagnose(dataset, BuildDiagnosisRuns(SplitRows(dataset, regions)));
}

Explanation Explainer::Diagnose(const tsdata::Dataset& dataset,
                                const DiagnosisRuns& runs) const {
  TRACE_SPAN("explainer.diagnose");
  static common::Counter* diagnoses =
      common::MetricsRegistry::Global().GetCounter("explainer.diagnoses");
  static common::LatencyHistogram* latency =
      common::MetricsRegistry::Global().GetHistogram("explainer.diagnose_us");
  diagnoses->Increment();
  common::ScopedLatency timer(latency);

  Explanation out;
  PredicateGenResult generated =
      GeneratePredicates(dataset, runs, options_.predicate_options);
  out.predicates = std::move(generated.predicates);
  out.warnings = std::move(generated.warnings);

  if (options_.apply_domain_knowledge && !options_.domain_knowledge.empty()) {
    TRACE_SPAN("explainer.domain_knowledge_pruning");
    out.predicates = options_.domain_knowledge.PruneSecondarySymptoms(
        dataset, std::move(out.predicates), options_.independence_options);
  }

  if (!repository_.empty()) {
    TRACE_SPAN("explainer.model_matching");
    out.causes = repository_.Rank(dataset, runs, options_.predicate_options,
                                  options_.confidence_threshold);
  }
  return out;
}

Explanation Explainer::DiagnoseAuto(const tsdata::Dataset& dataset,
                                    DetectionResult* detected) const {
  TRACE_SPAN("explainer.diagnose_auto");
  DetectionResult detection =
      DetectAnomalies(dataset, options_.detector_options);
  if (detected != nullptr) *detected = detection;
  return Diagnose(
      dataset, DetectionToRegions(detection, dataset,
                                  options_.detector_options));
}

void Explainer::AcceptDiagnosis(const std::string& cause,
                                const Explanation& explanation,
                                const std::string& action) {
  CausalModel model;
  model.cause = cause;
  model.suggested_action = action;
  for (const AttributeDiagnosis& d : explanation.predicates) {
    model.predicates.push_back(d.predicate);
  }
  repository_.Add(std::move(model));
}

}  // namespace dbsherlock::core
