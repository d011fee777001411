#include "core/phc.hpp"

#include <numeric>

namespace llmq::core {

namespace {

std::vector<std::size_t> all_rows(const table::Table& t) {
  std::vector<std::size_t> rows(t.num_rows());
  std::iota(rows.begin(), rows.end(), 0);
  return rows;
}

}  // namespace

CellLengths::CellLengths(const table::Table& t, LengthMeasure measure)
    : CellLengths(t, all_rows(t), measure) {}

CellLengths::CellLengths(const table::Table& t,
                         std::span<const std::size_t> rows,
                         LengthMeasure measure)
    : dict_(&t.dict()),
      n_rows_(rows.size()),
      n_cols_(t.num_cols()),
      measure_(measure) {
  ids_.resize(n_rows_ * n_cols_);
  len_.resize(n_rows_ * n_cols_);
  // Dictionary id -> local id, open addressing over a power-of-two table
  // at most half full. Sized by the view, never by the dictionary.
  constexpr std::uint32_t kEmpty = UINT32_MAX;
  std::size_t cap = 16;
  while (cap < 2 * ids_.size()) cap *= 2;
  std::vector<table::ValueId> keys(cap, kEmpty);
  std::vector<std::uint32_t> local(cap);
  std::vector<double> value_len;
  for (std::size_t c = 0; c < n_cols_; ++c) {
    const std::vector<table::ValueId>& column = t.column_ids(c);
    for (std::size_t i = 0; i < n_rows_; ++i) {
      const table::ValueId v = column[rows[i]];
      std::size_t s = (v * 0x9E3779B1u) & (cap - 1);
      while (keys[s] != kEmpty && keys[s] != v) s = (s + 1) & (cap - 1);
      if (keys[s] == kEmpty) {
        keys[s] = v;
        local[s] = static_cast<std::uint32_t>(values_.size());
        values_.push_back(v);
        double l = 1.0;
        if (measure == LengthMeasure::Tokens)
          l = static_cast<double>(dict_->token_count(v));
        else if (measure == LengthMeasure::Chars)
          l = static_cast<double>(dict_->str(v).size());
        value_len.push_back(l);
      }
      ids_[i * n_cols_ + c] = local[s];
      len_[i * n_cols_ + c] = value_len[local[s]];
    }
  }
}

namespace {

PhcBreakdown evaluate(const CellLengths& cells, const Ordering& ordering,
                      MatchMode mode, bool want_detail) {
  PhcBreakdown out;
  const std::size_t n = ordering.num_rows();
  const std::size_t m = cells.num_cols();
  if (want_detail) out.per_row.assign(n, 0.0);
  for (std::size_t pos = 0; pos < n; ++pos) {
    const std::size_t row = ordering.row_at(pos);
    const auto& fields = ordering.fields_at(pos);
    if (pos > 0) {
      for (std::size_t f = 0; f < m; ++f)
        out.max_possible += cells.sq_len(row, fields[f]);
    }
    if (pos == 0) continue;
    const std::size_t prev_row = ordering.row_at(pos - 1);
    const auto& prev_fields = ordering.fields_at(pos - 1);
    double hit = 0.0;
    for (std::size_t f = 0; f < m; ++f) {
      const std::size_t col = fields[f];
      const std::size_t prev_col = prev_fields[f];
      if (mode == MatchMode::FieldAndValue && col != prev_col) break;
      if (cells.id(row, col) != cells.id(prev_row, prev_col)) break;
      hit += cells.sq_len(row, col);
    }
    out.total += hit;
    if (hit > 0.0) ++out.rows_with_hits;
    if (want_detail) out.per_row[pos] = hit;
  }
  return out;
}

}  // namespace

double phc(const table::Table& t, const Ordering& ordering,
           LengthMeasure measure, MatchMode mode) {
  const CellLengths cells(t, measure);
  return evaluate(cells, ordering, mode, /*want_detail=*/false).total;
}

double phc(const table::Table& t, std::span<const std::size_t> rows,
           const Ordering& ordering, LengthMeasure measure, MatchMode mode) {
  const CellLengths cells(t, rows, measure);
  return evaluate(cells, ordering, mode, /*want_detail=*/false).total;
}

PhcBreakdown phc_breakdown(const table::Table& t, const Ordering& ordering,
                           LengthMeasure measure, MatchMode mode) {
  const CellLengths cells(t, measure);
  return evaluate(cells, ordering, mode, /*want_detail=*/true);
}

double phc_with_lengths(const CellLengths& lengths, const Ordering& ordering,
                        MatchMode mode) {
  return evaluate(lengths, ordering, mode, /*want_detail=*/false).total;
}

TokenPhr token_phr(const std::vector<std::vector<std::uint32_t>>& requests) {
  TokenPhr out;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    out.total_tokens += requests[i].size();
    if (i == 0) continue;
    const auto& prev = requests[i - 1];
    const auto& cur = requests[i];
    std::size_t k = 0;
    const std::size_t lim = std::min(prev.size(), cur.size());
    while (k < lim && prev[k] == cur[k]) ++k;
    out.hit_tokens += k;
  }
  return out;
}

}  // namespace llmq::core
