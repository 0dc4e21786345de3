#include "core/predicate.h"

#include <gtest/gtest.h>

namespace dbsherlock::core {
namespace {

tsdata::Dataset MakeDataset() {
  tsdata::Dataset d(tsdata::Schema(
      {{"cpu", tsdata::AttributeKind::kNumeric},
       {"mode", tsdata::AttributeKind::kCategorical}}));
  // t:    0     1     2     3
  // cpu:  10    20    80    90
  // mode: idle  idle  busy  busy
  EXPECT_TRUE(d.AppendRow(0, {10.0, std::string("idle")}).ok());
  EXPECT_TRUE(d.AppendRow(1, {20.0, std::string("idle")}).ok());
  EXPECT_TRUE(d.AppendRow(2, {80.0, std::string("busy")}).ok());
  EXPECT_TRUE(d.AppendRow(3, {90.0, std::string("busy")}).ok());
  return d;
}

TEST(PredicateTest, LessThanSemantics) {
  Predicate p{"cpu", PredicateType::kLessThan, 0.0, 50.0, {}};
  EXPECT_TRUE(p.MatchesNumeric(49.9));
  EXPECT_FALSE(p.MatchesNumeric(50.0));
}

TEST(PredicateTest, GreaterThanSemantics) {
  Predicate p{"cpu", PredicateType::kGreaterThan, 50.0, 0.0, {}};
  EXPECT_TRUE(p.MatchesNumeric(50.0));  // inclusive lower bound
  EXPECT_TRUE(p.MatchesNumeric(51.0));
  EXPECT_FALSE(p.MatchesNumeric(49.9));
}

TEST(PredicateTest, RangeSemantics) {
  Predicate p{"cpu", PredicateType::kRange, 10.0, 20.0, {}};
  EXPECT_TRUE(p.MatchesNumeric(10.0));
  EXPECT_TRUE(p.MatchesNumeric(19.9));
  EXPECT_FALSE(p.MatchesNumeric(20.0));
  EXPECT_FALSE(p.MatchesNumeric(9.9));
}

TEST(PredicateTest, InSetSemantics) {
  Predicate p{"mode", PredicateType::kInSet, 0.0, 0.0, {"busy", "odd"}};
  EXPECT_TRUE(p.MatchesCategory("busy"));
  EXPECT_TRUE(p.MatchesCategory("odd"));
  EXPECT_FALSE(p.MatchesCategory("idle"));
  EXPECT_FALSE(p.MatchesNumeric(1.0));  // numeric eval of a set predicate
}

TEST(PredicateTest, MatchesRowNumericAndCategorical) {
  tsdata::Dataset d = MakeDataset();
  Predicate cpu_high{"cpu", PredicateType::kGreaterThan, 50.0, 0.0, {}};
  EXPECT_FALSE(cpu_high.MatchesRow(d, 0));
  EXPECT_TRUE(cpu_high.MatchesRow(d, 2));

  Predicate busy{"mode", PredicateType::kInSet, 0.0, 0.0, {"busy"}};
  EXPECT_FALSE(busy.MatchesRow(d, 1));
  EXPECT_TRUE(busy.MatchesRow(d, 3));
}

TEST(PredicateTest, MatchesRowMissingOrWrongKindAttribute) {
  tsdata::Dataset d = MakeDataset();
  Predicate missing{"nope", PredicateType::kGreaterThan, 0.0, 0.0, {}};
  EXPECT_FALSE(missing.MatchesRow(d, 0));
  // Numeric predicate against a categorical column.
  Predicate wrong_kind{"mode", PredicateType::kGreaterThan, 0.0, 0.0, {}};
  EXPECT_FALSE(wrong_kind.MatchesRow(d, 0));
  // Set predicate against a numeric column.
  Predicate wrong_kind2{"cpu", PredicateType::kInSet, 0.0, 0.0, {"x"}};
  EXPECT_FALSE(wrong_kind2.MatchesRow(d, 0));
}

TEST(PredicateTest, ToStringForms) {
  EXPECT_EQ((Predicate{"cpu", PredicateType::kGreaterThan, 42.5, 0, {}})
                .ToString(),
            "cpu > 42.5");
  EXPECT_EQ(
      (Predicate{"cpu", PredicateType::kLessThan, 0, 7.0, {}}).ToString(),
      "cpu < 7");
  EXPECT_EQ(
      (Predicate{"cpu", PredicateType::kRange, 1.0, 2.0, {}}).ToString(),
      "1 < cpu < 2");
  EXPECT_EQ((Predicate{"mode", PredicateType::kInSet, 0, 0, {"a", "b"}})
                .ToString(),
            "mode IN {a, b}");
}

TEST(SeparationPowerTest, PerfectSeparator) {
  tsdata::Dataset d = MakeDataset();
  tsdata::LabeledRows rows;
  rows.normal = {0, 1};
  rows.abnormal = {2, 3};
  Predicate p{"cpu", PredicateType::kGreaterThan, 50.0, 0.0, {}};
  EXPECT_DOUBLE_EQ(SeparationPower(p, d, BuildDiagnosisRuns(rows)), 1.0);
}

TEST(SeparationPowerTest, InverseSeparatorIsNegative) {
  tsdata::Dataset d = MakeDataset();
  tsdata::LabeledRows rows;
  rows.normal = {0, 1};
  rows.abnormal = {2, 3};
  Predicate p{"cpu", PredicateType::kLessThan, 0.0, 50.0, {}};
  EXPECT_DOUBLE_EQ(SeparationPower(p, d, BuildDiagnosisRuns(rows)), -1.0);
}

TEST(SeparationPowerTest, PartialSeparation) {
  tsdata::Dataset d = MakeDataset();
  tsdata::LabeledRows rows;
  rows.normal = {0, 1};
  rows.abnormal = {2, 3};
  // Matches rows 1,2,3 -> abnormal ratio 1.0, normal ratio 0.5.
  Predicate p{"cpu", PredicateType::kGreaterThan, 15.0, 0.0, {}};
  EXPECT_DOUBLE_EQ(SeparationPower(p, d, BuildDiagnosisRuns(rows)), 0.5);
}

TEST(SeparationPowerTest, EmptyRegionGivesZero) {
  tsdata::Dataset d = MakeDataset();
  tsdata::LabeledRows rows;
  rows.abnormal = {2, 3};
  Predicate p{"cpu", PredicateType::kGreaterThan, 50.0, 0.0, {}};
  EXPECT_DOUBLE_EQ(SeparationPower(p, d, BuildDiagnosisRuns(rows)), 0.0);
}

TEST(ConjunctTest, AllMustMatch) {
  tsdata::Dataset d = MakeDataset();
  std::vector<Predicate> conjunct = {
      {"cpu", PredicateType::kGreaterThan, 50.0, 0.0, {}},
      {"mode", PredicateType::kInSet, 0.0, 0.0, {"busy"}},
  };
  EXPECT_TRUE(ConjunctMatchesRow(conjunct, d, 2));
  EXPECT_FALSE(ConjunctMatchesRow(conjunct, d, 1));
}

TEST(ConjunctTest, EmptyConjunctMatchesNothing) {
  tsdata::Dataset d = MakeDataset();
  EXPECT_FALSE(ConjunctMatchesRow({}, d, 0));
}

}  // namespace
}  // namespace dbsherlock::core
