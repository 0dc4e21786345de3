#include "tsdata/dataset.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"

namespace dbsherlock::tsdata {

Column Column::FromNumeric(std::vector<double> values) {
  Column column(AttributeKind::kNumeric);
  column.numeric_ = std::move(values);
  return column;
}

Column Column::FromCodes(std::vector<std::string> dictionary,
                         std::vector<int32_t> codes) {
  // Canonical shape: codes introduce entries in dictionary order, and
  // every entry is used and distinct.
  int32_t next = 0;
  bool canonical = true;
  for (int32_t code : codes) {
    if (code == next) {
      ++next;
    } else if (code > next) {
      canonical = false;
      break;
    }
  }
  Column column(AttributeKind::kCategorical);
  canonical = canonical && static_cast<size_t>(next) == dictionary.size();
  for (size_t i = 0; canonical && i < dictionary.size(); ++i) {
    canonical = column.dictionary_index_
                    .emplace(dictionary[i], static_cast<int32_t>(i))
                    .second;
  }
  if (!canonical) {
    Column interned(AttributeKind::kCategorical);
    for (int32_t code : codes) {
      interned.AppendCategorical(dictionary[static_cast<size_t>(code)]);
    }
    return interned;
  }
  column.dictionary_ = std::move(dictionary);
  column.codes_ = std::move(codes);
  return column;
}

int32_t Column::Intern(const std::string& value) {
  // try_emplace looks the key up before allocating a node: most appends
  // repeat a known category.
  auto [it, inserted] = dictionary_index_.try_emplace(
      value, static_cast<int32_t>(dictionary_.size()));
  if (inserted) dictionary_.push_back(value);
  return it->second;
}

void Column::AppendCategorical(const std::string& value) {
  codes_.push_back(Intern(value));
}

void Column::AppendRows(const Column& src, std::span<const size_t> rows) {
  if (kind_ == AttributeKind::kNumeric) {
    for (size_t row : rows) numeric_.push_back(src.numeric_[row]);
    return;
  }
  std::vector<int32_t> remap(src.dictionary_.size(), -1);
  for (size_t row : rows) {
    int32_t& code = remap[static_cast<size_t>(src.codes_[row])];
    if (code < 0) code = Intern(src.CategoryName(src.codes_[row]));
    codes_.push_back(code);
  }
}

int32_t Column::CodeOf(const std::string& value) const {
  auto it = dictionary_index_.find(value);
  return it == dictionary_index_.end() ? -1 : it->second;
}

Dataset::Dataset(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.num_attributes());
  for (size_t i = 0; i < schema_.num_attributes(); ++i) {
    columns_.emplace_back(schema_.attribute(i).kind);
  }
}

common::Result<Dataset> Dataset::FromColumns(Schema schema,
                                             std::vector<double> timestamps,
                                             std::vector<Column> columns) {
  if (columns.size() != schema.num_attributes()) {
    return common::Status::InvalidArgument(common::StrFormat(
        "%zu columns for %zu attributes", columns.size(),
        schema.num_attributes()));
  }
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].kind() != schema.attribute(i).kind ||
        columns[i].size() != timestamps.size()) {
      return common::Status::InvalidArgument(
          "column " + schema.attribute(i).name +
          " does not match its attribute kind or the row count");
    }
  }
  Dataset out;
  out.schema_ = std::move(schema);
  out.timestamps_ = std::move(timestamps);
  out.columns_ = std::move(columns);
  return out;
}

common::Status Dataset::AppendRow(double timestamp,
                                  const std::vector<Cell>& cells) {
  if (!timestamps_.empty() && timestamp < timestamps_.back()) {
    return common::Status::InvalidArgument(
        "timestamps must be non-decreasing");
  }
  return AppendRowUnchecked(timestamp, cells);
}

common::Status Dataset::AppendRowUnchecked(double timestamp,
                                           const std::vector<Cell>& cells) {
  if (cells.size() != schema_.num_attributes()) {
    return common::Status::InvalidArgument(common::StrFormat(
        "row has %zu cells, schema has %zu attributes", cells.size(),
        schema_.num_attributes()));
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    AttributeKind kind = schema_.attribute(i).kind;
    if (kind == AttributeKind::kNumeric) {
      if (!std::holds_alternative<double>(cells[i])) {
        return common::Status::InvalidArgument(
            "expected numeric cell for attribute " + schema_.attribute(i).name);
      }
    } else if (!std::holds_alternative<std::string>(cells[i])) {
      return common::Status::InvalidArgument(
          "expected categorical cell for attribute " +
          schema_.attribute(i).name);
    }
  }
  // Validation passed; now mutate (keeps the dataset consistent on error).
  timestamps_.push_back(timestamp);
  for (size_t i = 0; i < cells.size(); ++i) {
    if (columns_[i].kind() == AttributeKind::kNumeric) {
      columns_[i].AppendNumeric(std::get<double>(cells[i]));
    } else {
      columns_[i].AppendCategorical(std::get<std::string>(cells[i]));
    }
  }
  return common::Status::OK();
}

void Dataset::RowCells(size_t row, std::vector<Cell>* cells) const {
  cells->resize(columns_.size());
  for (size_t i = 0; i < columns_.size(); ++i) {
    const Column& column = columns_[i];
    if (column.kind() == AttributeKind::kNumeric) {
      (*cells)[i] = column.numeric(row);
    } else {
      (*cells)[i] = column.CategoryName(column.code(row));
    }
  }
}

bool Dataset::TimestampsSorted() const {
  // NaN defeats std::is_sorted (every comparison is false), so check
  // explicitly: a NaN timestamp means the stream is NOT well ordered.
  for (size_t i = 0; i < timestamps_.size(); ++i) {
    if (std::isnan(timestamps_[i])) return false;
    if (i > 0 && timestamps_[i] < timestamps_[i - 1]) return false;
  }
  return true;
}

common::Result<const Column*> Dataset::ColumnByName(
    const std::string& name) const {
  auto idx = schema_.IndexOf(name);
  if (!idx.ok()) return idx.status();
  return &columns_[*idx];
}

std::vector<size_t> Dataset::RowsInTimeRange(double start, double end) const {
  std::vector<size_t> rows;
  if (!TimestampsSorted()) {
    // Corrupted (unsorted / NaN) timestamps: std::lower_bound requires a
    // partitioned range, so degrade to a linear scan. NaN timestamps fail
    // both comparisons and are excluded.
    for (size_t i = 0; i < timestamps_.size(); ++i) {
      if (timestamps_[i] >= start && timestamps_[i] < end) rows.push_back(i);
    }
    return rows;
  }
  auto lo = std::lower_bound(timestamps_.begin(), timestamps_.end(), start);
  for (auto it = lo; it != timestamps_.end() && *it < end; ++it) {
    rows.push_back(static_cast<size_t>(it - timestamps_.begin()));
  }
  return rows;
}

common::Status Dataset::AppendRows(const Dataset& src,
                                   std::span<const size_t> rows) {
  if (!(src.schema_ == schema_)) {
    return common::Status::InvalidArgument(
        "AppendRows: source schema differs");
  }
  for (size_t row : rows) {
    if (row >= src.num_rows()) {
      return common::Status::InvalidArgument(common::StrFormat(
          "AppendRows: row %zu of %zu", row, src.num_rows()));
    }
  }
  for (size_t row : rows) timestamps_.push_back(src.timestamps_[row]);
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].AppendRows(src.columns_[c], rows);
  }
  return common::Status::OK();
}

Dataset Dataset::Slice(size_t begin, size_t end) const {
  Dataset out(schema_);
  std::vector<size_t> rows;
  for (size_t row = begin; row < std::min(end, num_rows()); ++row) {
    rows.push_back(row);
  }
  (void)out.AppendRows(*this, rows);  // same schema, rows in range
  return out;
}

}  // namespace dbsherlock::tsdata
