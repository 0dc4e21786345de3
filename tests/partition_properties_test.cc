// Randomized property tests over the partition-space pipeline and the
// serialization layers: invariants that must hold for *any* input, checked
// across many seeded random instances.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/csv.h"
#include "common/json.h"
#include "common/random.h"
#include "common/strings.h"
#include "core/partition_space.h"
#include "core/predicate.h"
#include "core/predicate_generator.h"
#include "tsdata/dataset_io.h"

namespace dbsherlock {
namespace {

using core::PartitionLabel;
using core::PartitionSpace;

class SeededProperty : public ::testing::TestWithParam<uint64_t> {};

PartitionSpace RandomLabeledSpace(common::Pcg32* rng, size_t size) {
  PartitionSpace space =
      PartitionSpace::Numeric(0.0, static_cast<double>(size), size);
  for (size_t j = 0; j < size; ++j) {
    switch (rng->NextBounded(3)) {
      case 0:
        space.set_label(j, PartitionLabel::kEmpty);
        break;
      case 1:
        space.set_label(j, PartitionLabel::kNormal);
        break;
      default:
        space.set_label(j, PartitionLabel::kAbnormal);
        break;
    }
  }
  return space;
}

TEST_P(SeededProperty, FilteringOnlyEverBlanksPartitions) {
  common::Pcg32 rng(GetParam(), 1);
  for (int trial = 0; trial < 20; ++trial) {
    size_t size = 3 + rng.NextBounded(60);
    PartitionSpace space = RandomLabeledSpace(&rng, size);
    std::vector<PartitionLabel> before = space.labels();
    FilterPartitions(&space);
    for (size_t j = 0; j < size; ++j) {
      // A partition either keeps its label or becomes Empty — filtering
      // never invents Normal/Abnormal labels and never flips them.
      EXPECT_TRUE(space.label(j) == before[j] ||
                  space.label(j) == PartitionLabel::kEmpty);
    }
  }
}

TEST_P(SeededProperty, RepeatedFilteringIsMonotoneAndTerminates) {
  // The paper applies filtering exactly once (Section 4.3 explicitly
  // rejects incremental application because blanking exposes new
  // conflicting neighbors and the cascade would eat whole runs). The true
  // invariant of re-application is monotonicity: each extra pass can only
  // blank further partitions, and a fixpoint is reached within |space|
  // passes.
  common::Pcg32 rng(GetParam(), 2);
  for (int trial = 0; trial < 10; ++trial) {
    size_t size = 4 + rng.NextBounded(40);
    PartitionSpace space = RandomLabeledSpace(&rng, size);
    size_t prev_nonempty = size + 1;
    for (size_t pass = 0; pass <= size; ++pass) {
      size_t nonempty =
          size - space.CountWithLabel(PartitionLabel::kEmpty);
      ASSERT_LT(nonempty, prev_nonempty + 1);  // never grows
      if (nonempty == prev_nonempty) break;    // fixpoint
      prev_nonempty = nonempty;
      FilterPartitions(&space);
    }
    size_t final_nonempty =
        size - space.CountWithLabel(PartitionLabel::kEmpty);
    EXPECT_LE(final_nonempty, prev_nonempty);
  }
}

TEST_P(SeededProperty, GapFillingLeavesNoEmptiesWhenAnchored) {
  common::Pcg32 rng(GetParam(), 3);
  for (int trial = 0; trial < 20; ++trial) {
    size_t size = 3 + rng.NextBounded(60);
    PartitionSpace space = RandomLabeledSpace(&rng, size);
    bool had_nonempty =
        space.CountWithLabel(PartitionLabel::kNormal) > 0 ||
        space.CountWithLabel(PartitionLabel::kAbnormal) > 0;
    double delta = rng.NextDouble(0.1, 10.0);
    double anchor = rng.NextDouble(0.0, static_cast<double>(size));
    FillPartitionGaps(&space, delta, anchor);
    if (had_nonempty) {
      EXPECT_EQ(space.CountWithLabel(PartitionLabel::kEmpty), 0u);
    } else {
      EXPECT_EQ(space.CountWithLabel(PartitionLabel::kEmpty), size);
    }
  }
}

TEST_P(SeededProperty, GapFillingPreservesNonEmptyLabels) {
  common::Pcg32 rng(GetParam(), 4);
  for (int trial = 0; trial < 20; ++trial) {
    size_t size = 3 + rng.NextBounded(60);
    PartitionSpace space = RandomLabeledSpace(&rng, size);
    std::vector<PartitionLabel> before = space.labels();
    bool has_normal = space.CountWithLabel(PartitionLabel::kNormal) > 0;
    FillPartitionGaps(&space, rng.NextDouble(0.1, 10.0), std::nullopt);
    for (size_t j = 0; j < size; ++j) {
      if (before[j] == PartitionLabel::kEmpty) continue;
      // Pre-labeled partitions never change... except the Section 4.4
      // anchor, which only fires when no Normal partition existed.
      if (has_normal || before[j] == PartitionLabel::kNormal) {
        EXPECT_EQ(space.label(j), before[j]);
      }
    }
  }
}

TEST_P(SeededProperty, LargerDeltaNeverGrowsTheAbnormalSide) {
  common::Pcg32 rng(GetParam(), 5);
  for (int trial = 0; trial < 10; ++trial) {
    size_t size = 5 + rng.NextBounded(50);
    PartitionSpace base = RandomLabeledSpace(&rng, size);
    PartitionSpace small = base;
    PartitionSpace large = base;
    FillPartitionGaps(&small, 0.5, 0.0);
    FillPartitionGaps(&large, 8.0, 0.0);
    EXPECT_LE(large.CountWithLabel(PartitionLabel::kAbnormal),
              small.CountWithLabel(PartitionLabel::kAbnormal));
  }
}

/// A random split of rows [0, n) into abnormal, normal and ignored rows,
/// each region partly shuffled: non-contiguous and unsorted, so its run
/// decomposition has many short runs, some of them out of order.
tsdata::LabeledRows RandomRows(common::Pcg32* rng, size_t n) {
  tsdata::LabeledRows rows;
  for (size_t row = 0; row < n; ++row) {
    switch (rng->NextBounded(3)) {
      case 0:
        rows.abnormal.push_back(row);
        break;
      case 1:
        rows.normal.push_back(row);
        break;
      default:
        break;  // ignored
    }
  }
  for (std::vector<size_t>* region : {&rows.abnormal, &rows.normal}) {
    for (size_t i = 0; i + 1 < region->size(); i += 2 + rng->NextBounded(6)) {
      std::swap((*region)[i], (*region)[rng->NextBounded(
                                  static_cast<uint32_t>(region->size()))]);
    }
  }
  return rows;
}

/// A finite value in [-50, 150], or NaN/+Inf/-Inf one time in ten.
double RandomCell(common::Pcg32* rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double special[] = {std::numeric_limits<double>::quiet_NaN(), kInf,
                            -kInf};
  return rng->NextBernoulli(0.1) ? special[rng->NextBounded(3)]
                                 : rng->NextDouble(-50.0, 150.0);
}

TEST_P(SeededProperty, NumericLabelingMatchesAPerRowTally) {
  // The reference is Section 4.2's rule applied row by row: each finite
  // cell votes for PartitionOf(value), non-finite cells vote for nothing.
  // The space covers only part of the value range, so both edges clamp.
  common::Pcg32 rng(GetParam(), 10);
  for (int trial = 0; trial < 20; ++trial) {
    size_t n = 1 + rng.NextBounded(200);
    std::vector<double> values(n);
    for (double& v : values) v = RandomCell(&rng);
    tsdata::LabeledRows rows = RandomRows(&rng, n);
    PartitionSpace space = PartitionSpace::Numeric(
        rng.NextDouble(-10.0, 20.0), rng.NextDouble(80.0, 110.0),
        1 + rng.NextBounded(60));
    std::vector<size_t> abnormal(space.size(), 0);
    std::vector<size_t> normal(space.size(), 0);
    for (size_t row : rows.abnormal) {
      double v = values[row];
      if (std::isfinite(v)) ++abnormal[space.PartitionOf(v)];
    }
    for (size_t row : rows.normal) {
      double v = values[row];
      if (std::isfinite(v)) ++normal[space.PartitionOf(v)];
    }
    std::vector<PartitionLabel> want(space.size(), PartitionLabel::kEmpty);
    for (size_t j = 0; j < space.size(); ++j) {
      if (abnormal[j] > 0 && normal[j] == 0) {
        want[j] = PartitionLabel::kAbnormal;
      } else if (normal[j] > 0 && abnormal[j] == 0) {
        want[j] = PartitionLabel::kNormal;
      }
    }
    core::LabelNumericPartitions(values, core::BuildDiagnosisRuns(rows),
                                 &space);
    EXPECT_EQ(space.labels(), want) << "trial " << trial;
  }
}

TEST_P(SeededProperty, SeparationPowerMatchesAPerRowCount) {
  // The reference is Eq. (1) counted row by row with Predicate::MatchesRow,
  // including the cases where it matches nothing: a missing attribute and
  // a predicate of the other kind than its column.
  common::Pcg32 rng(GetParam(), 11);
  const char* const categories[] = {"a", "b", "c", "d"};
  for (int trial = 0; trial < 10; ++trial) {
    tsdata::Dataset d(
        tsdata::Schema({{"num", tsdata::AttributeKind::kNumeric},
                        {"cat", tsdata::AttributeKind::kCategorical}}));
    size_t n = 1 + rng.NextBounded(150);
    for (size_t row = 0; row < n; ++row) {
      ASSERT_TRUE(d.AppendRow(static_cast<double>(row),
                              {RandomCell(&rng),
                               std::string(categories[rng.NextBounded(4)])})
                      .ok());
    }
    tsdata::LabeledRows rows = RandomRows(&rng, n);
    double lo = rng.NextDouble(-50.0, 100.0);
    double hi = lo + rng.NextDouble(0.0, 100.0);
    std::vector<core::Predicate> predicates = {
        {"num", core::PredicateType::kLessThan, 0.0, hi, {}},
        {"num", core::PredicateType::kGreaterThan, lo, 0.0, {}},
        {"num", core::PredicateType::kRange, lo, hi, {}},
        {"cat", core::PredicateType::kInSet, 0.0, 0.0, {"b", "zz"}},
        {"cat", core::PredicateType::kInSet, 0.0, 0.0, {"a", "c", "d"}},
        {"nope", core::PredicateType::kGreaterThan, lo, 0.0, {}},
        {"cat", core::PredicateType::kGreaterThan, lo, 0.0, {}},
        {"num", core::PredicateType::kInSet, 0.0, 0.0, {"a"}},
    };
    core::DiagnosisRuns runs = core::BuildDiagnosisRuns(rows);
    for (const core::Predicate& p : predicates) {
      double want = 0.0;
      if (!rows.abnormal.empty() && !rows.normal.empty()) {
        size_t abnormal_hits = 0;
        size_t normal_hits = 0;
        for (size_t row : rows.abnormal) abnormal_hits += p.MatchesRow(d, row);
        for (size_t row : rows.normal) normal_hits += p.MatchesRow(d, row);
        want = static_cast<double>(abnormal_hits) /
                   static_cast<double>(rows.abnormal.size()) -
               static_cast<double>(normal_hits) /
                   static_cast<double>(rows.normal.size());
      }
      EXPECT_EQ(core::SeparationPower(p, d, runs), want)
          << p.ToString() << " trial " << trial;
    }
  }
}

TEST_P(SeededProperty, GeneratedPredicatesAlwaysHavePositivePower) {
  common::Pcg32 rng(GetParam(), 6);
  // Random dataset: some attributes shift, some don't, arbitrary noise.
  tsdata::Schema schema;
  const size_t num_attrs = 4;
  for (size_t a = 0; a < num_attrs; ++a) {
    ASSERT_TRUE(schema
                    .AddAttribute({common::StrFormat("attr%zu", a),
                                   tsdata::AttributeKind::kNumeric})
                    .ok());
  }
  tsdata::Dataset d(schema);
  tsdata::DiagnosisRegions regions;
  regions.abnormal.Add(60, 100);
  std::vector<double> shift(num_attrs);
  std::vector<double> noise(num_attrs);
  for (size_t a = 0; a < num_attrs; ++a) {
    shift[a] = rng.NextDouble(-100.0, 100.0);
    noise[a] = rng.NextDouble(0.5, 20.0);
  }
  for (int t = 0; t < 160; ++t) {
    bool ab = t >= 60 && t < 100;
    std::vector<tsdata::Cell> cells;
    for (size_t a = 0; a < num_attrs; ++a) {
      cells.emplace_back((ab ? shift[a] : 0.0) +
                         rng.NextGaussian(0.0, noise[a]));
    }
    ASSERT_TRUE(d.AppendRow(t, cells).ok());
  }
  core::PredicateGenResult result =
      core::GeneratePredicates(d, regions, {});
  tsdata::LabeledRows rows = SplitRows(d, regions);
  for (const auto& diag : result.predicates) {
    // Whatever was extracted must genuinely separate in the right
    // direction, both on tuples and in its partition space.
    EXPECT_GT(diag.separation_power, 0.0) << diag.predicate.ToString();
    EXPECT_GT(diag.partition_separation_power, 0.0)
        << diag.predicate.ToString();
    EXPECT_GT(diag.normalized_mean_diff, 0.2);
  }
}

TEST_P(SeededProperty, CsvRoundTripRandomTables) {
  common::Pcg32 rng(GetParam(), 7);
  const char pool[] = "abc\",\n\r 'x=%";
  auto random_field = [&]() {
    std::string f;
    size_t len = rng.NextBounded(12);
    for (size_t i = 0; i < len; ++i) {
      f += pool[rng.NextBounded(sizeof(pool) - 1)];
    }
    return f;
  };
  for (int trial = 0; trial < 10; ++trial) {
    common::CsvTable table;
    size_t cols = 1 + rng.NextBounded(6);
    for (size_t c = 0; c < cols; ++c) {
      table.header.push_back(common::StrFormat("c%zu", c));
    }
    size_t rows = rng.NextBounded(20);
    for (size_t r = 0; r < rows; ++r) {
      std::vector<std::string> row;
      for (size_t c = 0; c < cols; ++c) row.push_back(random_field());
      table.rows.push_back(std::move(row));
    }
    auto parsed = common::ParseCsv(common::WriteCsv(table));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->header, table.header);
    EXPECT_EQ(parsed->rows, table.rows);
  }
}

TEST_P(SeededProperty, JsonRoundTripRandomDocuments) {
  common::Pcg32 rng(GetParam(), 8);
  // Random JSON value generator, depth-bounded.
  std::function<common::JsonValue(int)> gen = [&](int depth) {
    uint32_t pick = rng.NextBounded(depth > 3 ? 4u : 6u);
    switch (pick) {
      case 0:
        return common::JsonValue();
      case 1:
        return common::JsonValue(rng.NextBernoulli(0.5));
      case 2:
        return common::JsonValue(rng.NextDouble(-1e6, 1e6));
      case 3: {
        std::string s;
        size_t len = rng.NextBounded(10);
        for (size_t i = 0; i < len; ++i) {
          s += static_cast<char>(32 + rng.NextBounded(95));
        }
        return common::JsonValue(std::move(s));
      }
      case 4: {
        common::JsonValue::Array a;
        size_t len = rng.NextBounded(5);
        for (size_t i = 0; i < len; ++i) a.push_back(gen(depth + 1));
        return common::JsonValue(std::move(a));
      }
      default: {
        common::JsonValue::Object o;
        size_t len = rng.NextBounded(5);
        for (size_t i = 0; i < len; ++i) {
          o[common::StrFormat("k%zu", i)] = gen(depth + 1);
        }
        return common::JsonValue(std::move(o));
      }
    }
  };
  for (int trial = 0; trial < 20; ++trial) {
    common::JsonValue v = gen(0);
    for (int indent : {-1, 2}) {
      auto parsed = common::ParseJson(v.Dump(indent));
      ASSERT_TRUE(parsed.ok()) << v.Dump(indent);
      EXPECT_TRUE(*parsed == v);
    }
  }
}

TEST_P(SeededProperty, DatasetCsvRoundTripRandom) {
  common::Pcg32 rng(GetParam(), 9);
  tsdata::Schema schema;
  ASSERT_TRUE(
      schema.AddAttribute({"num", tsdata::AttributeKind::kNumeric}).ok());
  ASSERT_TRUE(
      schema.AddAttribute({"cat", tsdata::AttributeKind::kCategorical}).ok());
  tsdata::Dataset d(schema);
  size_t rows = 1 + rng.NextBounded(50);
  const char* cats[] = {"a", "b,with comma", "c\"quote", ""};
  for (size_t r = 0; r < rows; ++r) {
    ASSERT_TRUE(d.AppendRow(static_cast<double>(r),
                            {rng.NextDouble(-1e9, 1e9),
                             std::string(cats[rng.NextBounded(4)])})
                    .ok());
  }
  auto round = tsdata::DatasetFromCsv(tsdata::DatasetToCsv(d));
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  ASSERT_EQ(round->num_rows(), rows);
  for (size_t r = 0; r < rows; ++r) {
    EXPECT_DOUBLE_EQ(round->column(0).numeric(r), d.column(0).numeric(r));
    EXPECT_EQ(round->column(1).CategoryName(round->column(1).code(r)),
              d.column(1).CategoryName(d.column(1).code(r)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace dbsherlock
