#include "core/predicate.h"

#include <algorithm>

#include "common/simd/simd.h"
#include "common/strings.h"

namespace dbsherlock::core {

namespace {

/// CountMatches arguments equivalent to MatchesNumeric for a numeric
/// predicate shape.
struct NumericCmp {
  common::simd::CmpKind kind;
  double lo;
  double hi;
};

NumericCmp CmpOf(const Predicate& p) {
  switch (p.type) {
    case PredicateType::kLessThan:
      return {common::simd::CmpKind::kLess, 0.0, p.high};
    case PredicateType::kGreaterThan:
      return {common::simd::CmpKind::kGreaterEq, p.low, 0.0};
    case PredicateType::kRange:
    case PredicateType::kInSet:
      break;
  }
  return {common::simd::CmpKind::kInRange, p.low, p.high};
}

uint64_t CountRunMatches(const Predicate& p, std::span<const double> values,
                         const std::vector<RowRun>& runs) {
  NumericCmp cmp = CmpOf(p);
  uint64_t hits = 0;
  for (const RowRun& run : runs) {
    hits += common::simd::CountMatches(values.data() + run.begin, run.size(),
                                       cmp.kind, cmp.lo, cmp.hi);
  }
  return hits;
}

/// `matches[c]` is 1 when category code c satisfies the predicate.
uint64_t CountRunMatches(const std::vector<uint8_t>& matches,
                         std::span<const int32_t> codes,
                         const std::vector<RowRun>& runs) {
  uint64_t hits = 0;
  for (const RowRun& run : runs) {
    for (size_t row = run.begin; row < run.end; ++row) {
      hits += matches[static_cast<size_t>(codes[row])];
    }
  }
  return hits;
}

}  // namespace

bool Predicate::MatchesNumeric(double value) const {
  switch (type) {
    case PredicateType::kLessThan:
      return value < high;
    case PredicateType::kGreaterThan:
      return value >= low;
    case PredicateType::kRange:
      return value >= low && value < high;
    case PredicateType::kInSet:
      return false;
  }
  return false;
}

bool Predicate::MatchesCategory(const std::string& value) const {
  if (type != PredicateType::kInSet) return false;
  return std::find(categories.begin(), categories.end(), value) !=
         categories.end();
}

bool Predicate::MatchesRow(const tsdata::Dataset& dataset, size_t row) const {
  auto idx = dataset.schema().IndexOf(attribute);
  if (!idx.ok()) return false;
  const tsdata::Column& col = dataset.column(*idx);
  if (is_numeric()) {
    if (col.kind() != tsdata::AttributeKind::kNumeric) return false;
    return MatchesNumeric(col.numeric(row));
  }
  if (col.kind() != tsdata::AttributeKind::kCategorical) return false;
  return MatchesCategory(col.CategoryName(col.code(row)));
}

std::string Predicate::ToString() const {
  switch (type) {
    case PredicateType::kLessThan:
      return common::StrFormat("%s < %.4g", attribute.c_str(), high);
    case PredicateType::kGreaterThan:
      return common::StrFormat("%s > %.4g", attribute.c_str(), low);
    case PredicateType::kRange:
      return common::StrFormat("%.4g < %s < %.4g", low, attribute.c_str(),
                               high);
    case PredicateType::kInSet: {
      std::string out = attribute + " IN {";
      for (size_t i = 0; i < categories.size(); ++i) {
        if (i > 0) out += ", ";
        out += categories[i];
      }
      out += "}";
      return out;
    }
  }
  return attribute + " <invalid>";
}

double SeparationPower(const Predicate& predicate,
                       const tsdata::Dataset& dataset,
                       const DiagnosisRuns& runs) {
  if (runs.abnormal_rows == 0 || runs.normal_rows == 0) return 0.0;
  auto idx = dataset.schema().IndexOf(predicate.attribute);
  if (!idx.ok()) return 0.0;
  const tsdata::Column& col = dataset.column(*idx);
  uint64_t abnormal_hits = 0;
  uint64_t normal_hits = 0;
  if (predicate.is_numeric()) {
    if (col.kind() != tsdata::AttributeKind::kNumeric) return 0.0;
    std::span<const double> values = col.numeric_values();
    abnormal_hits = CountRunMatches(predicate, values, runs.abnormal);
    normal_hits = CountRunMatches(predicate, values, runs.normal);
  } else {
    if (col.kind() != tsdata::AttributeKind::kCategorical) return 0.0;
    std::vector<uint8_t> matches(col.num_categories());
    for (size_t c = 0; c < matches.size(); ++c) {
      matches[c] = predicate.MatchesCategory(
          col.CategoryName(static_cast<int32_t>(c)));
    }
    abnormal_hits = CountRunMatches(matches, col.codes(), runs.abnormal);
    normal_hits = CountRunMatches(matches, col.codes(), runs.normal);
  }
  return static_cast<double>(abnormal_hits) /
             static_cast<double>(runs.abnormal_rows) -
         static_cast<double>(normal_hits) /
             static_cast<double>(runs.normal_rows);
}

bool ConjunctMatchesRow(const std::vector<Predicate>& predicates,
                        const tsdata::Dataset& dataset, size_t row) {
  if (predicates.empty()) return false;
  for (const Predicate& p : predicates) {
    if (!p.MatchesRow(dataset, row)) return false;
  }
  return true;
}

}  // namespace dbsherlock::core
