#pragma once
// Columnar in-memory table.
//
// The substrate the reordering algorithms, query executor, and dataset
// generators operate on. Column-major storage mirrors how analytical
// engines hold data and makes per-column scans (distinct-value grouping,
// statistics) cache-friendly — these scans dominate GGR's runtime.
//
// Cells are interned: each holds a ValueId into the table's ValueDict
// (table/value_dict.hpp), shared with every table derived from it by
// take_rows / project / head. cell() still returns the string; planners
// compare cell_id()s and read per-value token counts and spans from
// dict() instead of re-tokenising.

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "table/schema.hpp"
#include "table/value_dict.hpp"

namespace llmq::table {

class Table {
 public:
  Table();
  explicit Table(Schema schema);

  const Schema& schema() const { return schema_; }
  std::size_t num_rows() const { return num_rows_; }
  std::size_t num_cols() const { return schema_.size(); }

  /// Append a row; `cells.size()` must equal `num_cols()`.
  void append_row(const std::vector<std::string>& cells);

  const std::string& cell(std::size_t row, std::size_t col) const {
    return dict_->str(columns_[col][row]);
  }
  ValueId cell_id(std::size_t row, std::size_t col) const {
    return columns_[col][row];
  }
  const std::vector<ValueId>& column_ids(std::size_t col) const {
    return columns_.at(col);
  }

  /// Id of field `col`'s name in dict() (the prompt builder's key span).
  ValueId field_id(std::size_t col) const { return field_ids_[col]; }

  /// The value dictionary behind this table's ids.
  const ValueDict& dict() const { return *dict_; }
  bool shares_dict(const Table& other) const { return dict_ == other.dict_; }

  /// Materialize column `col` (or the named column) in row order.
  std::vector<std::string> column(std::size_t col) const;
  std::vector<std::string> column(std::string_view name) const {
    return column(schema_.require(name));
  }

  /// Materialize row `r` in schema order.
  std::vector<std::string> row(std::size_t r) const;

  /// New table with only `row_indices`, in that order.
  Table take_rows(const std::vector<std::size_t>& row_indices) const;

  /// New table with only `col_indices`, in that order.
  Table project(const std::vector<std::size_t>& col_indices) const;
  Table project(const std::vector<std::string>& col_names) const;

  /// First `n` rows (or all if fewer) — used by the OPHR-sample ablation.
  Table head(std::size_t n) const;

  /// Rename field `col`; the cells are untouched.
  void rename_field(std::size_t col, std::string name);

  /// Concatenate another table with an identical schema. Ids are remapped
  /// when `other` has a different dictionary.
  void append_table(const Table& other);

  /// Distinct values of a column with their row lists, in first-seen order.
  struct Group {
    std::string value;
    std::vector<std::size_t> rows;
  };
  std::vector<Group> group_by_value(std::size_t col) const;

  /// Rows sorted lexicographically by the given field priority (indices
  /// into the schema). Returns the permutation, does not reorder storage.
  std::vector<std::size_t> sorted_row_order(
      const std::vector<std::size_t>& field_priority) const;

  /// Same schema and the same strings cell by cell (dictionaries may
  /// differ).
  bool operator==(const Table& other) const;

 private:
  /// Empty table over `schema` sharing `dict`.
  Table(Schema schema, std::shared_ptr<ValueDict> dict);

  Schema schema_;
  std::shared_ptr<ValueDict> dict_;
  std::vector<ValueId> field_ids_;
  std::vector<std::vector<ValueId>> columns_;
  std::size_t num_rows_ = 0;
};

}  // namespace llmq::table
