#include "core/baselines.hpp"

#include <algorithm>
#include <numeric>

namespace llmq::core {

Ordering original_ordering(const table::Table& t) {
  return Ordering::identity(t.num_rows(), t.num_cols());
}

Ordering stats_fixed_ordering(const table::Table& t) {
  const table::TableStats stats = table::compute_stats(t);
  const std::vector<std::size_t> field_order = stats.fields_by_expected_score();
  const std::vector<std::size_t> row_order = t.sorted_row_order(field_order);
  return Ordering::fixed_fields(row_order, field_order);
}

SubOrdering stats_fixed_subordering(
    const table::Table& t, const std::vector<std::uint32_t>& rows,
    const std::vector<std::uint32_t>& cols,
    const std::vector<std::vector<std::size_t>>* closures) {
  // Unit lengths: the ranking reads token counts, not the view's lengths.
  return stats_fixed_subordering(CellLengths(t, LengthMeasure::Unit), rows,
                                 cols, closures);
}

SubOrdering stats_fixed_subordering(
    const CellLengths& cells, const std::vector<std::uint32_t>& rows,
    const std::vector<std::uint32_t>& cols,
    const std::vector<std::vector<std::size_t>>* closures) {
  // Per-column expected score over just these rows.
  struct ColScore {
    std::size_t col;
    double score;
  };
  std::vector<ColScore> scored;
  scored.reserve(cols.size());
  std::vector<std::uint32_t> ids(rows.size());
  for (auto c : cols) {
    // Distinct values and their counts: sort the column's ids, then walk
    // the runs. Every term is an integer, so the sum is exact in any order.
    for (std::size_t i = 0; i < rows.size(); ++i) ids[i] = cells.id(rows[i], c);
    std::sort(ids.begin(), ids.end());
    double sum_sq = 0.0;
    std::size_t distinct = 0;
    for (std::size_t i = 0; i < ids.size();) {
      std::size_t j = i;
      while (j < ids.size() && ids[j] == ids[i]) ++j;
      const double l = static_cast<double>(cells.token_count(ids[i]));
      sum_sq += l * l * static_cast<double>(j - i);
      ++distinct;
      i = j;
    }
    const double avg_sq =
        rows.empty() ? 0.0 : sum_sq / static_cast<double>(rows.size());
    const double repeats =
        distinct == 0 ? 0.0
                      : static_cast<double>(rows.size()) /
                                static_cast<double>(distinct) -
                            1.0;
    scored.push_back(ColScore{c, repeats > 0.0 ? avg_sq * repeats : 0.0});
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const ColScore& a, const ColScore& b) {
                     return a.score > b.score;
                   });

  SubOrdering out;
  out.field_order.reserve(cols.size());
  if (closures == nullptr) {
    for (const auto& cs : scored) out.field_order.push_back(cs.col);
  } else {
    // Emit each field followed by its not-yet-emitted FD closure: fields
    // that repeat together stay adjacent, so a value match extends through
    // the whole dependent run instead of breaking on an interleaved
    // unrelated field.
    std::vector<bool> emitted(cells.num_cols(), false);
    std::vector<bool> in_view(cells.num_cols(), false);
    for (auto c : cols) in_view[c] = true;
    auto emit = [&](std::size_t c) {
      if (!in_view[c] || emitted[c]) return;
      emitted[c] = true;
      out.field_order.push_back(c);
    };
    for (const auto& cs : scored) {
      if (emitted[cs.col]) continue;
      emit(cs.col);
      for (std::size_t dep : (*closures)[cs.col]) emit(dep);
    }
  }

  out.row_order.assign(rows.begin(), rows.end());
  std::stable_sort(out.row_order.begin(), out.row_order.end(),
                   [&](std::size_t a, std::size_t b) {
                     for (std::size_t f : out.field_order) {
                       const std::uint32_t x = cells.id(a, f);
                       const std::uint32_t y = cells.id(b, f);
                       if (x == y) continue;
                       return cells.str(x) < cells.str(y);
                     }
                     return false;
                   });
  return out;
}

Ordering sorted_original_fields(const table::Table& t) {
  std::vector<std::size_t> field_order(t.num_cols());
  std::iota(field_order.begin(), field_order.end(), 0);
  return Ordering::fixed_fields(t.sorted_row_order(field_order), field_order);
}

Ordering random_ordering(const table::Table& t, util::Rng& rng) {
  std::vector<std::size_t> rows(t.num_rows());
  std::iota(rows.begin(), rows.end(), 0);
  rng.shuffle(rows);
  std::vector<std::vector<std::size_t>> fields;
  fields.reserve(t.num_rows());
  std::vector<std::size_t> base(t.num_cols());
  std::iota(base.begin(), base.end(), 0);
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    auto fo = base;
    rng.shuffle(fo);
    fields.push_back(std::move(fo));
  }
  return Ordering(std::move(rows), std::move(fields));
}

}  // namespace llmq::core
