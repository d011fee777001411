#include "table/stats.hpp"

#include <algorithm>
#include <numeric>

namespace llmq::table {

double ColumnStats::expected_hit_score(std::size_t n_rows) const {
  if (cardinality == 0) return 0.0;
  const double repeats =
      static_cast<double>(n_rows) / static_cast<double>(cardinality) - 1.0;
  return repeats <= 0.0 ? 0.0 : avg_sq_len_tokens * repeats;
}

std::vector<std::size_t> TableStats::fields_by_expected_score() const {
  std::vector<std::size_t> order(columns.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return columns[a].expected_hit_score(n_rows) >
           columns[b].expected_hit_score(n_rows);
  });
  return order;
}

TableStats compute_stats(const Table& t) {
  const ValueDict& dict = t.dict();
  TableStats out;
  out.n_rows = t.num_rows();
  out.columns.reserve(t.num_cols());
  // Per-id occurrence counts; `seen` lists each column's distinct ids.
  std::vector<std::size_t> counts(dict.size(), 0);
  std::vector<ValueId> seen;
  for (std::size_t c = 0; c < t.num_cols(); ++c) {
    ColumnStats cs;
    cs.name = t.schema().field(c).name;
    seen.clear();
    for (ValueId id : t.column_ids(c))
      if (counts[id]++ == 0) seen.push_back(id);
    cs.cardinality = seen.size();
    // Every term is an integer, so the sums are exact in any order.
    double sum_len = 0.0, sum_sq = 0.0;
    for (ValueId id : seen) {
      const auto len = static_cast<double>(dict.token_count(id));
      const std::size_t count = counts[id];
      counts[id] = 0;
      // Weight by occurrence count so stats describe rows, not the
      // distinct-value set.
      sum_len += len * static_cast<double>(count);
      sum_sq += len * len * static_cast<double>(count);
      cs.max_len_tokens = std::max(cs.max_len_tokens, len);
      cs.max_group_size = std::max(cs.max_group_size, count);
    }
    if (t.num_rows() > 0) {
      sum_len /= static_cast<double>(t.num_rows());
      sum_sq /= static_cast<double>(t.num_rows());
    }
    cs.avg_len_tokens = sum_len;
    cs.avg_sq_len_tokens = sum_sq;
    out.columns.push_back(std::move(cs));
  }
  return out;
}

}  // namespace llmq::table
