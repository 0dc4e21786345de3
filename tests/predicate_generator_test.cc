#include "core/predicate_generator.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"

namespace dbsherlock::core {
namespace {

/// Builds a dataset with 200 rows: the abnormal window is [100, 150). The
/// per-attribute generators decide each row's value given (t, abnormal).
struct TestData {
  tsdata::Dataset dataset;
  tsdata::DiagnosisRegions regions;
};

template <typename F>
TestData MakeData(const std::vector<std::pair<std::string, F>>& attrs,
                  int rows = 200, double ab_start = 100, double ab_end = 150) {
  tsdata::Schema schema;
  for (const auto& [name, fn] : attrs) {
    EXPECT_TRUE(
        schema.AddAttribute({name, tsdata::AttributeKind::kNumeric}).ok());
  }
  TestData out{tsdata::Dataset(schema), {}};
  out.regions.abnormal.Add(ab_start, ab_end);
  for (int t = 0; t < rows; ++t) {
    bool abnormal = t >= ab_start && t < ab_end;
    std::vector<tsdata::Cell> cells;
    for (const auto& [name, fn] : attrs) {
      cells.emplace_back(fn(t, abnormal));
    }
    EXPECT_TRUE(out.dataset.AppendRow(t, cells).ok());
  }
  return out;
}

using Gen = std::function<double(int, bool)>;

TEST(PredicateGeneratorTest, FindsStepAttribute) {
  common::Pcg32 rng(1);
  TestData data = MakeData<Gen>({
      {"shifted",
       [&](int, bool ab) {
         return (ab ? 100.0 : 10.0) + rng.NextGaussian(0.0, 2.0);
       }},
      {"flat", [&](int, bool) { return 50.0 + rng.NextGaussian(0.0, 2.0); }},
  });
  PredicateGenOptions options;
  PredicateGenResult result =
      GeneratePredicates(data.dataset, data.regions, options);
  ASSERT_EQ(result.predicates.size(), 1u);
  const AttributeDiagnosis& diag = result.predicates[0];
  EXPECT_EQ(diag.predicate.attribute, "shifted");
  EXPECT_EQ(diag.predicate.type, PredicateType::kGreaterThan);
  // The threshold should fall between the two clusters.
  EXPECT_GT(diag.predicate.low, 20.0);
  EXPECT_LT(diag.predicate.low, 95.0);
  EXPECT_GT(diag.separation_power, 0.95);
  EXPECT_GT(diag.normalized_mean_diff, 0.5);
}

TEST(PredicateGeneratorTest, FindsDownwardShiftAsLessThan) {
  common::Pcg32 rng(2);
  TestData data = MakeData<Gen>({
      {"drops",
       [&](int, bool ab) {
         return (ab ? 5.0 : 80.0) + rng.NextGaussian(0.0, 2.0);
       }},
  });
  PredicateGenResult result =
      GeneratePredicates(data.dataset, data.regions, {});
  ASSERT_EQ(result.predicates.size(), 1u);
  EXPECT_EQ(result.predicates[0].predicate.type, PredicateType::kLessThan);
}

TEST(PredicateGeneratorTest, ConstantAttributeYieldsNothing) {
  TestData data = MakeData<Gen>({
      {"constant", [](int, bool) { return 42.0; }},
  });
  PredicateGenResult result =
      GeneratePredicates(data.dataset, data.regions, {});
  EXPECT_TRUE(result.predicates.empty());
}

TEST(PredicateGeneratorTest, ThetaFiltersSmallShifts) {
  common::Pcg32 rng(3);
  // Mean shift ~8% of the range: passes theta=0.05, fails theta=0.2.
  TestData data = MakeData<Gen>({
      {"small_shift",
       [&](int, bool ab) {
         return (ab ? 58.0 : 50.0) + rng.NextDouble(-50.0, 50.0);
       }},
  });
  PredicateGenOptions loose;
  loose.normalized_diff_threshold = 0.01;
  PredicateGenOptions strict;
  strict.normalized_diff_threshold = 0.2;
  // With theta=0.2 the attribute is always rejected.
  EXPECT_TRUE(
      GeneratePredicates(data.dataset, data.regions, strict).predicates.empty());
  // With a loose theta the threshold no longer rejects it (whether a
  // single clean block exists still depends on the noise).
  PredicateGenResult result =
      GeneratePredicates(data.dataset, data.regions, loose);
  for (const auto& d : result.predicates) {
    EXPECT_GT(d.normalized_mean_diff, 0.01);
  }
}

TEST(PredicateGeneratorTest, EmptyRegionsGiveEmptyResult) {
  common::Pcg32 rng(4);
  TestData data = MakeData<Gen>({
      {"x",
       [&](int, bool ab) {
         return (ab ? 100.0 : 10.0) + rng.NextGaussian(0.0, 2.0);
       }},
  });
  tsdata::DiagnosisRegions no_abnormal;  // nothing marked
  EXPECT_TRUE(GeneratePredicates(data.dataset, no_abnormal, {})
                  .predicates.empty());
}

TEST(PredicateGeneratorTest, CategoricalPredicateExtracted) {
  tsdata::Schema schema;
  ASSERT_TRUE(schema
                  .AddAttribute({"mode", tsdata::AttributeKind::kCategorical})
                  .ok());
  tsdata::Dataset d(schema);
  tsdata::DiagnosisRegions regions;
  regions.abnormal.Add(100, 150);
  for (int t = 0; t < 200; ++t) {
    bool ab = t >= 100 && t < 150;
    ASSERT_TRUE(
        d.AppendRow(t, {std::string(ab ? "degraded" : "ok")}).ok());
  }
  PredicateGenResult result = GeneratePredicates(d, regions, {});
  ASSERT_EQ(result.predicates.size(), 1u);
  const Predicate& p = result.predicates[0].predicate;
  EXPECT_EQ(p.type, PredicateType::kInSet);
  ASSERT_EQ(p.categories.size(), 1u);
  EXPECT_EQ(p.categories[0], "degraded");
  EXPECT_DOUBLE_EQ(result.predicates[0].separation_power, 1.0);
}

TEST(PredicateGeneratorTest, ConstantCategoricalYieldsNothing) {
  tsdata::Schema schema;
  ASSERT_TRUE(schema
                  .AddAttribute({"mode", tsdata::AttributeKind::kCategorical})
                  .ok());
  tsdata::Dataset d(schema);
  tsdata::DiagnosisRegions regions;
  regions.abnormal.Add(100, 150);
  for (int t = 0; t < 200; ++t) {
    ASSERT_TRUE(d.AppendRow(t, {std::string("same")}).ok());
  }
  // The lone category has more normal than abnormal rows -> Normal label,
  // no predicate (invariants are never explanations, Section 2.4).
  EXPECT_TRUE(GeneratePredicates(d, regions, {}).predicates.empty());
}

TEST(PredicateGeneratorTest, NoisySpikesSurvivedByFiltering) {
  common::Pcg32 rng(5);
  // Normal values ~10 with occasional spikes to ~100 (hiccups); abnormal
  // values solidly ~100. Without the filtering step the hiccup partitions
  // would split the abnormal block.
  TestData data = MakeData<Gen>({
      {"noisy",
       [&](int t, bool ab) {
         if (ab) return 100.0 + rng.NextGaussian(0.0, 3.0);
         bool hiccup = (t % 37) == 5;
         return (hiccup ? 85.0 : 10.0) + rng.NextGaussian(0.0, 3.0);
       }},
  });
  PredicateGenOptions with_filtering;
  PredicateGenResult result =
      GeneratePredicates(data.dataset, data.regions, with_filtering);
  ASSERT_EQ(result.predicates.size(), 1u);
  EXPECT_GT(result.predicates[0].separation_power, 0.9);
}

TEST(PredicateGeneratorTest, AblationWithoutStepsFindsLittle) {
  common::Pcg32 rng(6);
  TestData data = MakeData<Gen>({
      {"noisy",
       [&](int t, bool ab) {
         if (ab) return 100.0 + rng.NextGaussian(0.0, 5.0);
         bool hiccup = (t % 23) == 3;
         return (hiccup ? 90.0 : 10.0) + rng.NextGaussian(0.0, 5.0);
       }},
  });
  PredicateGenOptions none;
  none.enable_filtering = false;
  none.enable_gap_filling = false;
  // Without filtering + gap filling, the abnormal partitions are
  // interleaved with empties, so no single consecutive block exists.
  EXPECT_TRUE(
      GeneratePredicates(data.dataset, data.regions, none).predicates.empty());
}

TEST(PredicateGeneratorTest, ResultsSortedBySeparationPower) {
  common::Pcg32 rng(7);
  TestData data = MakeData<Gen>({
      {"weak",
       [&](int, bool ab) {
         return (ab ? 70.0 : 30.0) + rng.NextDouble(-35.0, 35.0);
       }},
      {"strong",
       [&](int, bool ab) { return (ab ? 100.0 : 0.0) + rng.NextGaussian(); }},
  });
  PredicateGenOptions options;
  options.normalized_diff_threshold = 0.05;
  PredicateGenResult result =
      GeneratePredicates(data.dataset, data.regions, options);
  ASSERT_GE(result.predicates.size(), 1u);
  EXPECT_EQ(result.predicates[0].predicate.attribute, "strong");
  for (size_t i = 1; i < result.predicates.size(); ++i) {
    EXPECT_GE(result.predicates[i - 1].separation_power,
              result.predicates[i].separation_power);
  }
}

TEST(PredicateGeneratorTest, FindHelper) {
  common::Pcg32 rng(8);
  TestData data = MakeData<Gen>({
      {"x",
       [&](int, bool ab) {
         return (ab ? 100.0 : 10.0) + rng.NextGaussian(0.0, 2.0);
       }},
  });
  PredicateGenResult result =
      GeneratePredicates(data.dataset, data.regions, {});
  EXPECT_NE(result.Find("x"), nullptr);
  EXPECT_EQ(result.Find("y"), nullptr);
  EXPECT_EQ(result.PredicateList().size(), result.predicates.size());
}

// --- BuildFinalPartitionSpace ------------------------------------------------

TEST(BuildFinalSpaceTest, NumericSpaceFullyLabeled) {
  common::Pcg32 rng(9);
  TestData data = MakeData<Gen>({
      {"x",
       [&](int, bool ab) {
         return (ab ? 90.0 : 10.0) + rng.NextGaussian(0.0, 2.0);
       }},
  });
  DiagnosisRuns runs =
      BuildDiagnosisRuns(SplitRows(data.dataset, data.regions));
  auto space = BuildFinalPartitionSpace(data.dataset, runs, 0, {});
  ASSERT_TRUE(space.has_value());
  // After gap filling no Empty partitions remain.
  EXPECT_EQ(space->CountWithLabel(PartitionLabel::kEmpty), 0u);
  EXPECT_GT(space->CountWithLabel(PartitionLabel::kAbnormal), 0u);
  EXPECT_GT(space->CountWithLabel(PartitionLabel::kNormal), 0u);
}

TEST(BuildFinalSpaceTest, ConstantColumnGivesNullopt) {
  TestData data = MakeData<Gen>({
      {"c", [](int, bool) { return 1.0; }},
  });
  DiagnosisRuns runs =
      BuildDiagnosisRuns(SplitRows(data.dataset, data.regions));
  EXPECT_FALSE(BuildFinalPartitionSpace(data.dataset, runs, 0, {}).has_value());
}

TEST(PartitionSeparationPowerTest, MatchesLabeledSpace) {
  PartitionSpace space = PartitionSpace::Numeric(0.0, 100.0, 10);
  for (size_t j = 0; j < 5; ++j) space.set_label(j, PartitionLabel::kNormal);
  for (size_t j = 5; j < 10; ++j)
    space.set_label(j, PartitionLabel::kAbnormal);
  Predicate p{"x", PredicateType::kGreaterThan, 50.0, 0.0, {}};
  EXPECT_DOUBLE_EQ(PartitionSeparationPower(p, space), 1.0);
  Predicate q{"x", PredicateType::kGreaterThan, 80.0, 0.0, {}};
  EXPECT_DOUBLE_EQ(PartitionSeparationPower(q, space), 0.4);
}

// --- Property sweep: the generator recovers a planted shift across a grid
// of shift sizes and noise levels.
struct SweepParam {
  double shift;
  double noise;
};

class RecoverySweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(RecoverySweep, PlantedShiftRecovered) {
  SweepParam param = GetParam();
  common::Pcg32 rng(static_cast<uint64_t>(param.shift * 100 +
                                          param.noise * 10 + 1));
  TestData data = MakeData<Gen>({
      {"planted",
       [&](int, bool ab) {
         return (ab ? 50.0 + param.shift : 50.0) +
                rng.NextGaussian(0.0, param.noise);
       }},
  });
  PredicateGenOptions options;
  options.normalized_diff_threshold = 0.1;
  PredicateGenResult result =
      GeneratePredicates(data.dataset, data.regions, options);
  // Planted shifts at >= 5 sigma separate cleanly.
  ASSERT_EQ(result.predicates.size(), 1u)
      << "shift=" << param.shift << " noise=" << param.noise;
  EXPECT_EQ(result.predicates[0].predicate.type,
            PredicateType::kGreaterThan);
  EXPECT_GT(result.predicates[0].separation_power, 0.8);
}

INSTANTIATE_TEST_SUITE_P(
    ShiftsAndNoise, RecoverySweep,
    ::testing::Values(SweepParam{50.0, 2.0}, SweepParam{50.0, 5.0},
                      SweepParam{100.0, 2.0}, SweepParam{100.0, 10.0},
                      SweepParam{200.0, 20.0}, SweepParam{30.0, 3.0}));

}  // namespace
}  // namespace dbsherlock::core
