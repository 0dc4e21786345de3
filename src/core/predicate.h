#ifndef DBSHERLOCK_CORE_PREDICATE_H_
#define DBSHERLOCK_CORE_PREDICATE_H_

#include <string>
#include <vector>

#include "core/column_spans.h"
#include "tsdata/dataset.h"

namespace dbsherlock::core {

/// The predicate shapes of Section 3: `Attr < x`, `Attr > x`,
/// `x < Attr < y` for numeric attributes and `Attr IN {c1, ..., cl}` for
/// categorical ones. DBSherlock returns a conjunct of these to the user.
enum class PredicateType {
  kLessThan,     // value <  high
  kGreaterThan,  // value >= low (displayed as ">")
  kRange,        // low <= value < high
  kInSet,        // categorical value in `categories`
};

/// One simple predicate over a single attribute. Predicates are portable
/// across datasets: they refer to attributes by name and to categories by
/// string value, so a predicate extracted from one dataset can be evaluated
/// on another (needed for causal-model confidence, Section 6.1).
struct Predicate {
  std::string attribute;
  PredicateType type = PredicateType::kGreaterThan;
  /// Numeric boundaries. kLessThan uses `high` only, kGreaterThan `low`
  /// only, kRange both (low <= v < high).
  double low = 0.0;
  double high = 0.0;
  /// Category values for kInSet.
  std::vector<std::string> categories;

  bool is_numeric() const { return type != PredicateType::kInSet; }

  /// Evaluates on a numeric value (numeric predicates only).
  bool MatchesNumeric(double value) const;

  /// Evaluates on a category value (kInSet only).
  bool MatchesCategory(const std::string& value) const;

  /// Evaluates against row `row` of `dataset`. Returns false when the
  /// attribute is missing or of the wrong kind.
  bool MatchesRow(const tsdata::Dataset& dataset, size_t row) const;

  /// Human-readable form, e.g. "os_cpu_usage > 72.4" or
  /// "dominant_statement IN {scan}".
  std::string ToString() const;
};

/// The separation power of Eq. (1): the fraction of abnormal tuples
/// satisfying the predicate minus the fraction of normal tuples satisfying
/// it. Ranges in [-1, 1]; higher separates better. The attribute is
/// resolved once; numeric predicates count each run of diagnosis rows with
/// the dispatched CountMatches kernel (NaN cells match nothing), kInSet
/// predicates count each run over the codes column through a per-category
/// match table. A missing attribute, or one of the other kind, matches no
/// row (power 0); so does an empty region.
double SeparationPower(const Predicate& predicate,
                       const tsdata::Dataset& dataset,
                       const DiagnosisRuns& runs);

/// Evaluates a conjunct of predicates on one row (all must match). An empty
/// conjunct matches nothing (a diagnosis with no predicates flags no rows).
bool ConjunctMatchesRow(const std::vector<Predicate>& predicates,
                        const tsdata::Dataset& dataset, size_t row);

}  // namespace dbsherlock::core

#endif  // DBSHERLOCK_CORE_PREDICATE_H_
