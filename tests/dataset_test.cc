#include "tsdata/dataset.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace dbsherlock::tsdata {
namespace {

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

/// Bit-exact equality, dictionary codes and order included: what a
/// column-wise copy must reproduce of the row-at-a-time path.
void ExpectSameDataset(const Dataset& a, const Dataset& b) {
  ASSERT_TRUE(a.schema() == b.schema());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    EXPECT_EQ(Bits(a.timestamp(r)), Bits(b.timestamp(r))) << r;
  }
  for (size_t c = 0; c < a.num_attributes(); ++c) {
    const Column& ca = a.column(c);
    const Column& cb = b.column(c);
    if (ca.kind() == AttributeKind::kNumeric) {
      for (size_t r = 0; r < a.num_rows(); ++r) {
        EXPECT_EQ(Bits(ca.numeric(r)), Bits(cb.numeric(r))) << c << "/" << r;
      }
      continue;
    }
    ASSERT_EQ(ca.num_categories(), cb.num_categories());
    for (size_t k = 0; k < ca.num_categories(); ++k) {
      EXPECT_EQ(ca.CategoryName(static_cast<int32_t>(k)),
                cb.CategoryName(static_cast<int32_t>(k)));
    }
    EXPECT_TRUE(std::equal(ca.codes().begin(), ca.codes().end(),
                           cb.codes().begin(), cb.codes().end()));
  }
}

Schema TwoColumnSchema() {
  return Schema({{"latency", AttributeKind::kNumeric},
                 {"mode", AttributeKind::kCategorical}});
}

TEST(DatasetTest, AppendAndRead) {
  Dataset d(TwoColumnSchema());
  ASSERT_TRUE(d.AppendRow(0.0, {1.5, std::string("fast")}).ok());
  ASSERT_TRUE(d.AppendRow(1.0, {2.5, std::string("slow")}).ok());
  ASSERT_TRUE(d.AppendRow(2.0, {3.5, std::string("fast")}).ok());

  EXPECT_EQ(d.num_rows(), 3u);
  EXPECT_DOUBLE_EQ(d.timestamp(1), 1.0);
  EXPECT_DOUBLE_EQ(d.column(0).numeric(2), 3.5);
  const Column& mode = d.column(1);
  EXPECT_EQ(mode.num_categories(), 2u);
  EXPECT_EQ(mode.CategoryName(mode.code(0)), "fast");
  EXPECT_EQ(mode.code(0), mode.code(2));
  EXPECT_NE(mode.code(0), mode.code(1));
}

TEST(DatasetTest, RejectsArityMismatch) {
  Dataset d(TwoColumnSchema());
  EXPECT_FALSE(d.AppendRow(0.0, {1.5}).ok());
  EXPECT_EQ(d.num_rows(), 0u);
}

TEST(DatasetTest, RejectsKindMismatch) {
  Dataset d(TwoColumnSchema());
  EXPECT_FALSE(d.AppendRow(0.0, {std::string("x"), std::string("y")}).ok());
  EXPECT_FALSE(d.AppendRow(0.0, {1.0, 2.0}).ok());
  EXPECT_EQ(d.num_rows(), 0u);
}

TEST(DatasetTest, RejectsDecreasingTimestamps) {
  Dataset d(TwoColumnSchema());
  ASSERT_TRUE(d.AppendRow(5.0, {1.0, std::string("a")}).ok());
  EXPECT_FALSE(d.AppendRow(4.0, {1.0, std::string("a")}).ok());
  // Equal timestamps are allowed (non-decreasing).
  EXPECT_TRUE(d.AppendRow(5.0, {1.0, std::string("a")}).ok());
}

TEST(DatasetTest, ColumnByName) {
  Dataset d(TwoColumnSchema());
  ASSERT_TRUE(d.AppendRow(0.0, {9.0, std::string("x")}).ok());
  auto col = d.ColumnByName("latency");
  ASSERT_TRUE(col.ok());
  EXPECT_DOUBLE_EQ((*col)->numeric(0), 9.0);
  EXPECT_FALSE(d.ColumnByName("nope").ok());
}

TEST(DatasetTest, RowsInTimeRange) {
  Dataset d(Schema({{"v", AttributeKind::kNumeric}}));
  for (int t = 0; t < 10; ++t) {
    ASSERT_TRUE(d.AppendRow(t, {static_cast<double>(t)}).ok());
  }
  std::vector<size_t> rows = d.RowsInTimeRange(3.0, 6.0);
  EXPECT_EQ(rows, (std::vector<size_t>{3, 4, 5}));
  EXPECT_TRUE(d.RowsInTimeRange(100.0, 200.0).empty());
}

TEST(DatasetTest, SliceCopiesRowsAndDictionaries) {
  Dataset d(TwoColumnSchema());
  ASSERT_TRUE(d.AppendRow(0.0, {1.0, std::string("a")}).ok());
  ASSERT_TRUE(d.AppendRow(1.0, {2.0, std::string("b")}).ok());
  ASSERT_TRUE(d.AppendRow(2.0, {3.0, std::string("a")}).ok());

  Dataset s = d.Slice(1, 3);
  EXPECT_EQ(s.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(s.timestamp(0), 1.0);
  EXPECT_DOUBLE_EQ(s.column(0).numeric(1), 3.0);
  const Column& mode = s.column(1);
  EXPECT_EQ(mode.CategoryName(mode.code(0)), "b");
  EXPECT_EQ(mode.CategoryName(mode.code(1)), "a");
}

TEST(DatasetTest, SliceClampsEnd) {
  Dataset d(Schema({{"v", AttributeKind::kNumeric}}));
  ASSERT_TRUE(d.AppendRow(0.0, {1.0}).ok());
  Dataset s = d.Slice(0, 100);
  EXPECT_EQ(s.num_rows(), 1u);
}

TEST(DatasetTest, AppendRowsMatchesRowAtATimeCopies) {
  // A NaN with a payload, -0.0 and ±Inf must survive bit for bit, and the
  // categorical codes must be re-numbered into the destination dictionary.
  const double kPayloadNaN = std::bit_cast<double>(0x7FF800000000BEEFull);
  const double kInf = std::numeric_limits<double>::infinity();
  Dataset src(TwoColumnSchema());
  const std::vector<std::pair<double, std::string>> cells = {
      {kPayloadNaN, "scan"}, {-0.0, "seek"}, {kInf, "scan"},
      {-kInf, "sort"},       {0.0, "seek"},  {7.25, "hash"}};
  for (size_t i = 0; i < cells.size(); ++i) {
    ASSERT_TRUE(src.AppendRow(static_cast<double>(i),
                              {cells[i].first, cells[i].second})
                    .ok());
  }
  // The destination already knows some names, under other codes.
  Dataset columnwise(TwoColumnSchema());
  ASSERT_TRUE(columnwise.AppendRow(-1.0, {1.0, std::string("sort")}).ok());
  Dataset rowwise = columnwise;
  const std::vector<size_t> rows = {5, 0, 1, 1, 3, 2};  // any order, repeats
  ASSERT_TRUE(columnwise.AppendRows(src, rows).ok());
  for (size_t row : rows) {
    const Column& mode = src.column(1);
    ASSERT_TRUE(rowwise
                    .AppendRowUnchecked(src.timestamp(row),
                                        {src.column(0).numeric(row),
                                         mode.CategoryName(mode.code(row))})
                    .ok());
  }
  ExpectSameDataset(columnwise, rowwise);
  EXPECT_EQ(Bits(columnwise.column(0).numeric(2)), Bits(kPayloadNaN));
  EXPECT_EQ(Bits(columnwise.column(0).numeric(3)), Bits(-0.0));
  // Slice is the contiguous case of the same copy.
  ExpectSameDataset(src.Slice(1, 4), [&] {
    Dataset out(TwoColumnSchema());
    EXPECT_TRUE(out.AppendRows(src, std::vector<size_t>{1, 2, 3}).ok());
    return out;
  }());
}

TEST(DatasetTest, RowCellsIsTheInverseOfAppendRow) {
  // Every row read back through one reused buffer rebuilds the dataset
  // bit for bit, even when the buffer starts with the wrong size and kinds.
  const double kPayloadNaN = std::bit_cast<double>(0x7FF800000000BEEFull);
  const double kInf = std::numeric_limits<double>::infinity();
  Dataset src(TwoColumnSchema());
  const std::vector<std::pair<double, std::string>> rows = {
      {kPayloadNaN, "scan"}, {-0.0, "seek"}, {kInf, "scan"}, {-kInf, "sort"}};
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(src.AppendRow(static_cast<double>(i),
                              {rows[i].first, rows[i].second})
                    .ok());
  }
  Dataset copy(TwoColumnSchema());
  std::vector<Cell> cells = {std::string("stale"), 9.0, 1.0};
  for (size_t row = 0; row < src.num_rows(); ++row) {
    src.RowCells(row, &cells);
    ASSERT_EQ(cells.size(), 2u);
    ASSERT_TRUE(copy.AppendRow(src.timestamp(row), cells).ok());
  }
  ExpectSameDataset(src, copy);
}

TEST(DatasetTest, AppendRowsRejectsForeignSchemaAndBadRows) {
  Dataset src(TwoColumnSchema());
  ASSERT_TRUE(src.AppendRow(0.0, {1.0, std::string("a")}).ok());
  Dataset other(Schema({{"v", AttributeKind::kNumeric}}));
  EXPECT_FALSE(other.AppendRows(src, std::vector<size_t>{0}).ok());
  Dataset dst(TwoColumnSchema());
  EXPECT_FALSE(dst.AppendRows(src, std::vector<size_t>{1}).ok());
  EXPECT_EQ(dst.num_rows(), 0u);
  // A dataset may append its own rows.
  ASSERT_TRUE(src.AppendRows(src, std::vector<size_t>{0, 0}).ok());
  EXPECT_EQ(src.num_rows(), 3u);
}

TEST(DatasetTest, FromColumnsValidatesShape) {
  auto ok = Dataset::FromColumns(
      TwoColumnSchema(), {1.0, 2.0},
      {Column::FromNumeric({-0.0, 3.0}), Column::FromCodes({"a"}, {0, 0})});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->num_rows(), 2u);
  EXPECT_EQ(Bits(ok->column(0).numeric(0)), Bits(-0.0));
  EXPECT_FALSE(Dataset::FromColumns(TwoColumnSchema(), {1.0},
                                    {Column::FromNumeric({1.0})})
                   .ok());
  EXPECT_FALSE(Dataset::FromColumns(TwoColumnSchema(), {1.0},
                                    {Column::FromNumeric({1.0, 2.0}),
                                     Column::FromCodes({"a"}, {0})})
                   .ok());
  EXPECT_FALSE(Dataset::FromColumns(TwoColumnSchema(), {1.0},
                                    {Column::FromCodes({"a"}, {0}),
                                     Column::FromNumeric({1.0})})
                   .ok());
}

TEST(ColumnTest, FromCodesEqualsInterningEveryRow) {
  // Canonical input is adopted; duplicate, unused or out-of-order
  // dictionary entries are normalised to what interning builds.
  const std::vector<std::pair<std::vector<std::string>, std::vector<int32_t>>>
      cases = {{{"a", "b", "c"}, {0, 1, 0, 2}},
               {{"b", "a"}, {1, 0, 1}},
               {{"a", "a", "b"}, {0, 1, 2}},
               {{"a", "b", "unused"}, {0, 1}},
               {{}, {}}};
  for (const auto& [dict, codes] : cases) {
    Column direct = Column::FromCodes(dict, codes);
    Column interned(AttributeKind::kCategorical);
    for (int32_t code : codes) interned.AppendCategorical(dict[code]);
    ASSERT_EQ(direct.num_categories(), interned.num_categories());
    for (size_t k = 0; k < direct.num_categories(); ++k) {
      const std::string& name = direct.CategoryName(static_cast<int32_t>(k));
      EXPECT_EQ(name, interned.CategoryName(static_cast<int32_t>(k)));
      EXPECT_EQ(direct.CodeOf(name), static_cast<int32_t>(k));
    }
    EXPECT_TRUE(std::equal(direct.codes().begin(), direct.codes().end(),
                           interned.codes().begin(), interned.codes().end()));
  }
}

TEST(ColumnTest, CodeOfUnknownCategory) {
  Column c(AttributeKind::kCategorical);
  c.AppendCategorical("x");
  EXPECT_EQ(c.CodeOf("x"), 0);
  EXPECT_EQ(c.CodeOf("y"), -1);
}

}  // namespace
}  // namespace dbsherlock::tsdata
