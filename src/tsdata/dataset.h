#ifndef DBSHERLOCK_TSDATA_DATASET_H_
#define DBSHERLOCK_TSDATA_DATASET_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/status.h"
#include "tsdata/schema.h"

namespace dbsherlock::tsdata {

/// A cell value used when building rows: a double for numeric attributes or
/// a string for categorical ones.
using Cell = std::variant<double, std::string>;

/// One column of a Dataset. Numeric columns store doubles; categorical
/// columns store dictionary codes plus the dictionary itself, so predicate
/// evaluation compares small integers.
class Column {
 public:
  explicit Column(AttributeKind kind) : kind_(kind) {}

  /// A numeric column that owns `values` (the segment decoder's path).
  static Column FromNumeric(std::vector<double> values);
  /// A categorical column from a dictionary and codes into it (every code
  /// must index `dictionary`). The result is exactly the column interning
  /// each row's name in order would build — codes numbered by first
  /// appearance, no unused or duplicate entries — and when the input
  /// already has that shape, as every encoded segment does, it is adopted
  /// without hashing a string per row.
  static Column FromCodes(std::vector<std::string> dictionary,
                          std::vector<int32_t> codes);

  AttributeKind kind() const { return kind_; }
  size_t size() const {
    return kind_ == AttributeKind::kNumeric ? numeric_.size() : codes_.size();
  }

  // --- Numeric access -------------------------------------------------
  void AppendNumeric(double v) { numeric_.push_back(v); }
  double numeric(size_t row) const { return numeric_[row]; }
  std::span<const double> numeric_values() const { return numeric_; }

  // --- Categorical access ---------------------------------------------
  /// Appends a category value, interning it in the dictionary.
  void AppendCategorical(const std::string& value);
  int32_t code(size_t row) const { return codes_[row]; }
  std::span<const int32_t> codes() const { return codes_; }
  const std::string& CategoryName(int32_t code) const {
    return dictionary_[static_cast<size_t>(code)];
  }
  /// Number of distinct category values seen (|Unique(Attr)|).
  size_t num_categories() const { return dictionary_.size(); }
  /// Dictionary code for `value`, or -1 if the value was never seen.
  int32_t CodeOf(const std::string& value) const;

 private:
  friend class Dataset;

  int32_t Intern(const std::string& value);
  /// Appends `src` rows `rows` (same kind); categorical codes go through
  /// one per-call translation table, so each distinct name is interned
  /// once per call.
  void AppendRows(const Column& src, std::span<const size_t> rows);

  AttributeKind kind_;
  std::vector<double> numeric_;
  std::vector<int32_t> codes_;
  std::vector<std::string> dictionary_;
  std::unordered_map<std::string, int32_t> dictionary_index_;
};

/// The aligned statistics table DBSherlock operates on (Section 2.1): one
/// row per collection interval, `(Timestamp, Attr1, ..., Attrk)`, stored
/// column-wise. Timestamps are seconds and must be non-decreasing.
class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(Schema schema);

  /// Assembles a dataset from columnar storage without a per-row rebuild
  /// (the segment decoder's path). Fails unless `columns` match the
  /// schema's arity and kinds and each holds one value per timestamp.
  /// Timestamps are taken as given, like AppendRowUnchecked.
  static common::Result<Dataset> FromColumns(Schema schema,
                                             std::vector<double> timestamps,
                                             std::vector<Column> columns);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return timestamps_.size(); }
  size_t num_attributes() const { return schema_.num_attributes(); }

  /// Appends one row. `cells` must match the schema arity and kinds.
  common::Status AppendRow(double timestamp, const std::vector<Cell>& cells);

  /// Appends one row without the non-decreasing-timestamp check (cells are
  /// still validated against the schema). This is the ingestion path for
  /// hostile telemetry — fault-injected streams and CSVs read with
  /// `allow_unsorted` — which RepairDataset later sorts and dedupes. Normal
  /// producers should use AppendRow.
  common::Status AppendRowUnchecked(double timestamp,
                                    const std::vector<Cell>& cells);

  /// The inverse of AppendRow: fills `cells` with row `row`, one cell per
  /// attribute. Reuses the vector's storage, so a loop can pass one buffer.
  void RowCells(size_t row, std::vector<Cell>* cells) const;

  /// True when timestamps are non-decreasing (the invariant every consumer
  /// past the repair pipeline may assume).
  bool TimestampsSorted() const;

  double timestamp(size_t row) const { return timestamps_[row]; }
  std::span<const double> timestamps() const { return timestamps_; }

  const Column& column(size_t attr) const { return columns_[attr]; }
  Column* mutable_column(size_t attr) { return &columns_[attr]; }

  /// Column lookup by attribute name.
  common::Result<const Column*> ColumnByName(const std::string& name) const;

  /// Row indices whose timestamp lies in [start, end).
  std::vector<size_t> RowsInTimeRange(double start, double end) const;

  /// Appends `src` rows `rows` (indices into `src`, any order) column by
  /// column: numeric values are copied and categorical codes translated,
  /// with each distinct name interned once per call rather than once per
  /// row. `src` must have this dataset's schema. Timestamps are not
  /// order-checked, like AppendRowUnchecked.
  common::Status AppendRows(const Dataset& src, std::span<const size_t> rows);

  /// Copies rows [begin, end) into a new dataset with the same schema.
  Dataset Slice(size_t begin, size_t end) const;

 private:
  Schema schema_;
  std::vector<double> timestamps_;
  std::vector<Column> columns_;
};

}  // namespace dbsherlock::tsdata

#endif  // DBSHERLOCK_TSDATA_DATASET_H_
