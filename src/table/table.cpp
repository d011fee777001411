#include "table/table.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace llmq::table {

Table::Table() : dict_(std::make_shared<ValueDict>()) {}

Table::Table(Schema schema)
    : Table(std::move(schema), std::make_shared<ValueDict>()) {}

Table::Table(Schema schema, std::shared_ptr<ValueDict> dict)
    : schema_(std::move(schema)), dict_(std::move(dict)) {
  columns_.resize(schema_.size());
  field_ids_.reserve(schema_.size());
  for (const Field& f : schema_.fields())
    field_ids_.push_back(dict_->intern(f.name));
}

void Table::append_row(const std::vector<std::string>& cells) {
  if (cells.size() != schema_.size())
    throw std::invalid_argument("Table::append_row: arity mismatch");
  for (std::size_t c = 0; c < cells.size(); ++c)
    columns_[c].push_back(dict_->intern(cells[c]));
  ++num_rows_;
}

std::vector<std::string> Table::column(std::size_t col) const {
  std::vector<std::string> out;
  out.reserve(num_rows_);
  for (ValueId id : columns_.at(col)) out.push_back(dict_->str(id));
  return out;
}

std::vector<std::string> Table::row(std::size_t r) const {
  std::vector<std::string> out;
  out.reserve(num_cols());
  for (std::size_t c = 0; c < num_cols(); ++c) out.push_back(cell(r, c));
  return out;
}

Table Table::take_rows(const std::vector<std::size_t>& row_indices) const {
  Table out(schema_, dict_);
  for (std::size_t c = 0; c < num_cols(); ++c) {
    out.columns_[c].reserve(row_indices.size());
    for (std::size_t r : row_indices) out.columns_[c].push_back(columns_[c][r]);
  }
  out.num_rows_ = row_indices.size();
  return out;
}

Table Table::project(const std::vector<std::size_t>& col_indices) const {
  Table out(schema_.project(col_indices), dict_);
  for (std::size_t i = 0; i < col_indices.size(); ++i)
    out.columns_[i] = columns_.at(col_indices[i]);
  out.num_rows_ = num_rows_;
  return out;
}

Table Table::project(const std::vector<std::string>& col_names) const {
  std::vector<std::size_t> idx;
  idx.reserve(col_names.size());
  for (const auto& n : col_names) idx.push_back(schema_.require(n));
  return project(idx);
}

Table Table::head(std::size_t n) const {
  std::vector<std::size_t> idx(std::min(n, num_rows_));
  std::iota(idx.begin(), idx.end(), 0);
  return take_rows(idx);
}

void Table::rename_field(std::size_t col, std::string name) {
  std::vector<Field> fields = schema_.fields();
  fields.at(col).name = std::move(name);
  field_ids_[col] = dict_->intern(fields[col].name);
  schema_ = Schema(std::move(fields));
}

void Table::append_table(const Table& other) {
  if (!(schema_ == other.schema_))
    throw std::invalid_argument("Table::append_table: schema mismatch");
  if (shares_dict(other)) {
    for (std::size_t c = 0; c < num_cols(); ++c)
      columns_[c].insert(columns_[c].end(), other.columns_[c].begin(),
                         other.columns_[c].end());
  } else {
    constexpr ValueId kUnmapped = UINT32_MAX;
    std::vector<ValueId> remap(other.dict_->size(), kUnmapped);
    for (std::size_t c = 0; c < num_cols(); ++c) {
      columns_[c].reserve(columns_[c].size() + other.num_rows_);
      for (ValueId id : other.columns_[c]) {
        if (remap[id] == kUnmapped)
          remap[id] = dict_->intern(other.dict_->str(id));
        columns_[c].push_back(remap[id]);
      }
    }
  }
  num_rows_ += other.num_rows_;
}

std::vector<Table::Group> Table::group_by_value(std::size_t col) const {
  constexpr std::size_t kNone = SIZE_MAX;
  std::vector<Group> groups;
  std::vector<std::size_t> group_of(dict_->size(), kNone);
  for (std::size_t r = 0; r < num_rows_; ++r) {
    const ValueId id = columns_[col][r];
    if (group_of[id] == kNone) {
      group_of[id] = groups.size();
      groups.push_back(Group{dict_->str(id), {}});
    }
    groups[group_of[id]].rows.push_back(r);
  }
  return groups;
}

std::vector<std::size_t> Table::sorted_row_order(
    const std::vector<std::size_t>& field_priority) const {
  std::vector<std::size_t> order(num_rows_);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     for (std::size_t f : field_priority) {
                       const ValueId x = columns_[f][a], y = columns_[f][b];
                       if (x == y) continue;
                       return dict_->str(x) < dict_->str(y);
                     }
                     return false;
                   });
  return order;
}

bool Table::operator==(const Table& other) const {
  if (!(schema_ == other.schema_) || num_rows_ != other.num_rows_) return false;
  if (shares_dict(other)) return columns_ == other.columns_;
  for (std::size_t c = 0; c < num_cols(); ++c)
    for (std::size_t r = 0; r < num_rows_; ++r)
      if (cell(r, c) != other.cell(r, c)) return false;
  return true;
}

}  // namespace llmq::table
