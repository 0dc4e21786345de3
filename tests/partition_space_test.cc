#include "core/partition_space.h"

#include <gtest/gtest.h>

#include <vector>

namespace dbsherlock::core {
namespace {

using tsdata::LabeledRows;

// Shorthand for building label sequences in expectations.
constexpr PartitionLabel E = PartitionLabel::kEmpty;
constexpr PartitionLabel N = PartitionLabel::kNormal;
constexpr PartitionLabel A = PartitionLabel::kAbnormal;

PartitionSpace SpaceWithLabels(const std::vector<PartitionLabel>& labels) {
  PartitionSpace space = PartitionSpace::Numeric(
      0.0, static_cast<double>(labels.size()), labels.size());
  for (size_t j = 0; j < labels.size(); ++j) space.set_label(j, labels[j]);
  return space;
}

std::vector<PartitionLabel> Labels(const PartitionSpace& space) {
  return space.labels();
}

TEST(PartitionSpaceTest, NumericBoundsAndMembership) {
  PartitionSpace space = PartitionSpace::Numeric(0.0, 100.0, 5);
  EXPECT_EQ(space.size(), 5u);
  EXPECT_DOUBLE_EQ(space.lower_bound(0), 0.0);
  EXPECT_DOUBLE_EQ(space.upper_bound(0), 20.0);
  EXPECT_DOUBLE_EQ(space.lower_bound(4), 80.0);
  EXPECT_DOUBLE_EQ(space.mid_value(2), 50.0);
  EXPECT_EQ(space.PartitionOf(0.0), 0u);
  EXPECT_EQ(space.PartitionOf(19.999), 0u);
  EXPECT_EQ(space.PartitionOf(20.0), 1u);
  EXPECT_EQ(space.PartitionOf(100.0), 4u);  // max clamps into last
  EXPECT_EQ(space.PartitionOf(-5.0), 0u);
  EXPECT_EQ(space.PartitionOf(1e9), 4u);
}

TEST(PartitionSpaceTest, ZeroPartitionsBecomesOne) {
  PartitionSpace space = PartitionSpace::Numeric(0.0, 1.0, 0);
  EXPECT_EQ(space.size(), 1u);
}

TEST(PartitionSpaceTest, CategoricalConstruction) {
  PartitionSpace space = PartitionSpace::Categorical({"a", "b", "c"});
  EXPECT_FALSE(space.is_numeric());
  EXPECT_EQ(space.size(), 3u);
  EXPECT_EQ(space.category(1), "b");
}

// --- Labeling -------------------------------------------------------------

TEST(LabelingTest, NumericPureAndMixedPartitions) {
  // 10 partitions over [0, 10): values land in the partition of their
  // integer part.
  std::vector<double> values = {0.5, 1.5, 1.6, 2.5, 3.5};
  LabeledRows rows;
  rows.normal = {0, 2};    // values 0.5, 1.6
  rows.abnormal = {1, 3};  // values 1.5, 2.5  (partition 1 is mixed)
  // Row 4 (3.5) belongs to neither region -> its partition stays Empty.
  PartitionSpace space = PartitionSpace::Numeric(0.0, 10.0, 10);
  LabelNumericPartitions(values, BuildDiagnosisRuns(rows), &space);
  EXPECT_EQ(space.label(0), N);  // only value 0.5 (normal)
  EXPECT_EQ(space.label(1), E);  // mixed: 1.5 abnormal + 1.6 normal
  EXPECT_EQ(space.label(2), A);  // only 2.5 (abnormal)
  EXPECT_EQ(space.label(3), E);  // 3.5 is an ignored row
  EXPECT_EQ(space.label(4), E);  // no tuples
}

TEST(LabelingTest, CategoricalMajorityRule) {
  std::vector<int32_t> codes = {0, 0, 0, 1, 1, 2, 2};
  LabeledRows rows;
  rows.abnormal = {0, 1, 3, 5};  // codes 0,0,1,2
  rows.normal = {2, 4, 6};       // codes 0,1,2
  PartitionSpace space = PartitionSpace::Categorical({"x", "y", "z"});
  LabelCategoricalPartitions(codes, BuildDiagnosisRuns(rows), &space);
  EXPECT_EQ(space.label(0), A);  // 2 abnormal vs 1 normal
  EXPECT_EQ(space.label(1), E);  // tie 1-1
  EXPECT_EQ(space.label(2), E);  // tie 1-1
}

TEST(LabelingTest, CategoricalNormalMajority) {
  std::vector<int32_t> codes = {0, 0, 0};
  LabeledRows rows;
  rows.abnormal = {0};
  rows.normal = {1, 2};
  PartitionSpace space = PartitionSpace::Categorical({"only"});
  LabelCategoricalPartitions(codes, BuildDiagnosisRuns(rows), &space);
  EXPECT_EQ(space.label(0), N);
}

// --- Filtering (Figure 5 scenarios) ----------------------------------------

TEST(FilteringTest, Scenario1BothNeighborsSameKeeps) {
  PartitionSpace space = SpaceWithLabels({A, E, A, E, A});
  FilterPartitions(&space);
  EXPECT_EQ(Labels(space), (std::vector<PartitionLabel>{A, E, A, E, A}));
}

TEST(FilteringTest, Scenario2LeftNeighborDiffersFilters) {
  // N A A: the middle A has left neighbor N -> filtered; the end A has
  // only neighbor A (same, pre-filter labels) -> kept; N has neighbor A
  // -> filtered.
  PartitionSpace space = SpaceWithLabels({N, A, A});
  FilterPartitions(&space);
  EXPECT_EQ(Labels(space), (std::vector<PartitionLabel>{E, E, A}));
}

TEST(FilteringTest, Scenario3RightNeighborDiffersFilters) {
  PartitionSpace space = SpaceWithLabels({A, A, N});
  FilterPartitions(&space);
  EXPECT_EQ(Labels(space), (std::vector<PartitionLabel>{A, E, E}));
}

TEST(FilteringTest, Scenario4BothNeighborsDifferFilters) {
  PartitionSpace space = SpaceWithLabels({N, A, N});
  FilterPartitions(&space);
  // A filtered (both neighbors differ); both Ns filtered too (their only
  // neighbor A differs).
  EXPECT_EQ(Labels(space), (std::vector<PartitionLabel>{E, E, E}));
}

TEST(FilteringTest, DecisionsUseOriginalLabelsSimultaneously) {
  // N N A A A N N: boundary partitions are filtered but the middles stay,
  // which proves decisions are not cascaded incrementally.
  PartitionSpace space = SpaceWithLabels({N, N, A, A, A, N, N});
  FilterPartitions(&space);
  EXPECT_EQ(Labels(space),
            (std::vector<PartitionLabel>{N, E, E, A, E, E, N}));
}

TEST(FilteringTest, NeighborsSkipEmptyPartitions) {
  // A . N (with a gap): A's nearest non-empty neighbor is N -> both go.
  PartitionSpace space = SpaceWithLabels({A, E, E, N});
  FilterPartitions(&space);
  EXPECT_EQ(Labels(space), (std::vector<PartitionLabel>{E, E, E, E}));
}

TEST(FilteringTest, LonePartitionIsSignificant) {
  PartitionSpace space = SpaceWithLabels({E, E, A, E});
  FilterPartitions(&space);
  EXPECT_EQ(space.label(2), A);
}

TEST(FilteringTest, IsolatedNoiseInUniformRunRemoved) {
  // A single N inside a long A run is noise; it and its direct victims go.
  PartitionSpace space = SpaceWithLabels({A, A, N, A, A});
  FilterPartitions(&space);
  EXPECT_EQ(Labels(space), (std::vector<PartitionLabel>{A, E, E, E, A}));
}

// --- Gap filling ------------------------------------------------------------

TEST(GapFillingTest, NeutralDeltaSplitsByDistance) {
  PartitionSpace space = SpaceWithLabels({A, E, E, E, E, E, N});
  FillPartitionGaps(&space, 1.0, std::nullopt);
  // Positions 1,2 closer to A; 4,5 closer to N; position 3 ties -> Normal.
  EXPECT_EQ(Labels(space),
            (std::vector<PartitionLabel>{A, A, A, N, N, N, N}));
}

TEST(GapFillingTest, LargeDeltaShrinksAbnormal) {
  PartitionSpace space = SpaceWithLabels({A, E, E, E, E, E, N});
  FillPartitionGaps(&space, 10.0, std::nullopt);
  // delta = 10 pushes the abnormal side away: every gap becomes Normal.
  EXPECT_EQ(Labels(space),
            (std::vector<PartitionLabel>{A, N, N, N, N, N, N}));
}

TEST(GapFillingTest, SmallDeltaGrowsAbnormal) {
  PartitionSpace space = SpaceWithLabels({A, E, E, E, E, E, N});
  FillPartitionGaps(&space, 0.1, std::nullopt);
  EXPECT_EQ(Labels(space),
            (std::vector<PartitionLabel>{A, A, A, A, A, A, N}));
}

TEST(GapFillingTest, EdgesTakeNearestLabel) {
  PartitionSpace space = SpaceWithLabels({E, E, A, E, N, E});
  FillPartitionGaps(&space, 1.0, std::nullopt);
  EXPECT_EQ(space.label(0), A);
  EXPECT_EQ(space.label(1), A);
  EXPECT_EQ(space.label(5), N);
}

TEST(GapFillingTest, AllAbnormalUsesNormalAnchor) {
  // Only abnormal partitions remain; the anchor value (7.5 -> partition 7)
  // is forced Normal so a predicate direction exists.
  PartitionSpace space = PartitionSpace::Numeric(0.0, 10.0, 10);
  space.set_label(1, A);
  FillPartitionGaps(&space, 1.0, 7.5);
  EXPECT_EQ(space.label(7), N);
  EXPECT_EQ(space.label(0), A);
  EXPECT_EQ(space.label(9), N);
  // A single contiguous abnormal block must remain on the left.
  auto block = SingleAbnormalBlock(space);
  ASSERT_TRUE(block.has_value());
  EXPECT_EQ(block->first, 0u);
}

TEST(GapFillingTest, AnchorNotUsedWhenNormalExists) {
  PartitionSpace space = SpaceWithLabels({A, E, N, E});
  FillPartitionGaps(&space, 1.0, 3.9);  // anchor would hit partition 3
  // Partition 3's label comes from its neighbor N, not from the anchor
  // mechanism (which must not fire when a Normal partition exists).
  EXPECT_EQ(space.label(3), N);
  EXPECT_EQ(space.label(1), N);  // tie at distance 1 -> Normal
}

TEST(GapFillingTest, AllEmptyStaysEmpty) {
  PartitionSpace space = SpaceWithLabels({E, E, E});
  FillPartitionGaps(&space, 10.0, 1.0);
  EXPECT_EQ(Labels(space), (std::vector<PartitionLabel>{E, E, E}));
}

// --- Single abnormal block ---------------------------------------------------

TEST(SingleBlockTest, FindsBlock) {
  PartitionSpace space = SpaceWithLabels({N, A, A, A, N});
  auto block = SingleAbnormalBlock(space);
  ASSERT_TRUE(block.has_value());
  EXPECT_EQ(block->first, 1u);
  EXPECT_EQ(block->last, 3u);
}

TEST(SingleBlockTest, RejectsTwoRuns) {
  PartitionSpace space = SpaceWithLabels({A, N, A});
  EXPECT_FALSE(SingleAbnormalBlock(space).has_value());
}

TEST(SingleBlockTest, RejectsRunsSplitByEmpty) {
  PartitionSpace space = SpaceWithLabels({A, E, A});
  EXPECT_FALSE(SingleAbnormalBlock(space).has_value());
}

TEST(SingleBlockTest, NoneWhenNoAbnormal) {
  PartitionSpace space = SpaceWithLabels({N, N, E});
  EXPECT_FALSE(SingleAbnormalBlock(space).has_value());
}

TEST(SingleBlockTest, WholeSpaceBlock) {
  PartitionSpace space = SpaceWithLabels({A, A, A});
  auto block = SingleAbnormalBlock(space);
  ASSERT_TRUE(block.has_value());
  EXPECT_EQ(block->first, 0u);
  EXPECT_EQ(block->last, 2u);
}

TEST(PartitionSpaceTest, CountWithLabel) {
  PartitionSpace space = SpaceWithLabels({A, N, E, A});
  EXPECT_EQ(space.CountWithLabel(A), 2u);
  EXPECT_EQ(space.CountWithLabel(N), 1u);
  EXPECT_EQ(space.CountWithLabel(E), 1u);
}

}  // namespace
}  // namespace dbsherlock::core
