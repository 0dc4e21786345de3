#ifndef DBSHERLOCK_CORE_EXPLAINER_H_
#define DBSHERLOCK_CORE_EXPLAINER_H_

#include <string>
#include <vector>

#include "core/anomaly_detector.h"
#include "core/domain_knowledge.h"
#include "core/model_repository.h"
#include "core/predicate_generator.h"
#include "tsdata/dataset.h"
#include "tsdata/region.h"

namespace dbsherlock::core {

/// What DBSherlock shows the user for one inquiry (Section 2.3): the
/// explanatory predicates (after optional secondary-symptom pruning) and,
/// when causal models fit well enough, the ranked likely causes.
struct Explanation {
  std::vector<AttributeDiagnosis> predicates;
  std::vector<RankedCause> causes;  // above lambda, descending confidence
  /// Per-attribute trust notes from predicate generation: attributes
  /// skipped for bad data, or diagnosed with bad cells masked. Surfaced so
  /// the DBA knows which metrics the explanation could not rely on.
  std::vector<DataQualityWarning> warnings;

  /// Convenience: the conjunct as a display string.
  std::string PredicatesToString() const;
  /// Display form of the warnings, one line each; empty when none.
  std::string WarningsToString() const;
};

/// The top-level DBSherlock facade, tying together predicate generation
/// (Section 4), domain knowledge (Section 5), causal models (Section 6) and
/// automatic anomaly detection (Section 7).
///
/// Typical workflow (mirrors Figure 2):
///   Explainer sherlock(Explainer::Options{});
///   Explanation ex = sherlock.Diagnose(dataset, regions);
///   ... user inspects ex.predicates / ex.causes, identifies the cause ...
///   sherlock.AcceptDiagnosis("Log Rotation", ex);   // feedback step 6
class Explainer {
 public:
  struct Options {
    PredicateGenOptions predicate_options;
    /// lambda: minimum confidence (percent) for a cause to be shown.
    double confidence_threshold = 20.0;
    /// Secondary-symptom pruning (Section 5); on by default with the
    /// MySQL/Linux rules, matching the paper's main configuration.
    bool apply_domain_knowledge = true;
    DomainKnowledge domain_knowledge = DomainKnowledge::MySqlLinuxDefaults();
    IndependenceTestOptions independence_options;
    /// Automatic anomaly detection parameters (DiagnoseAuto).
    AnomalyDetectorOptions detector_options;
  };

  Explainer() : Explainer(Options{}) {}
  explicit Explainer(Options options) : options_(std::move(options)) {}

  const Options& options() const { return options_; }

  /// Diagnoses a user-specified anomaly: generates predicates, prunes
  /// secondary symptoms, and ranks the stored causal models.
  Explanation Diagnose(const tsdata::Dataset& dataset,
                       const tsdata::DiagnosisRegions& regions) const;

  /// As above, over the run decomposition of the split rows: predicate
  /// generation and model ranking both read `runs`.
  Explanation Diagnose(const tsdata::Dataset& dataset,
                       const DiagnosisRuns& runs) const;

  /// Diagnoses with automatic anomaly detection (Section 7): the abnormal
  /// region is found by the detector; everything else is treated as normal.
  /// `detected` (optional) receives the detector output.
  Explanation DiagnoseAuto(const tsdata::Dataset& dataset,
                           DetectionResult* detected = nullptr) const;

  /// Step 6 of the workflow: the user confirms the actual cause; the shown
  /// predicates become a causal model for future inquiries (merged into any
  /// existing model of the same cause). `action`, if non-empty, records the
  /// remediation the DBA applied; it is surfaced with future rankings of
  /// this cause (the paper's future-work item on storing DBA actions).
  void AcceptDiagnosis(const std::string& cause,
                       const Explanation& explanation,
                       const std::string& action = "");

  ModelRepository& repository() { return repository_; }
  const ModelRepository& repository() const { return repository_; }

 private:
  Options options_;
  ModelRepository repository_;
};

}  // namespace dbsherlock::core

#endif  // DBSHERLOCK_CORE_EXPLAINER_H_
