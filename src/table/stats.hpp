#pragma once
// Table statistics.
//
// GGR (paper §4.2.2) uses per-column statistics — cardinality and value
// length distributions — that "are readily available in many databases".
// These drive (a) the HITCOUNT early-stopping threshold, (b) the
// stats-ranked fixed field ordering GGR falls back to, and (c) the
// expected-contribution score E[len]^2 * (n/card - 1).

#include <cstddef>
#include <string>
#include <vector>

#include "table/table.hpp"

namespace llmq::table {

struct ColumnStats {
  std::string name;
  std::size_t cardinality = 0;       // distinct values
  double avg_len_tokens = 0.0;       // E[len] in tokens
  double avg_sq_len_tokens = 0.0;    // E[len^2] in tokens
  double max_len_tokens = 0.0;
  std::size_t max_group_size = 0;    // largest identical-value run possible

  /// Expected PHC contribution if this column led a fixed ordering:
  /// every value repeats n/card times on average; each repeat after the
  /// first is a hit worth E[len]^2.
  double expected_hit_score(std::size_t n_rows) const;
};

struct TableStats {
  std::vector<ColumnStats> columns;
  std::size_t n_rows = 0;

  const ColumnStats& column(std::size_t i) const { return columns.at(i); }

  /// Column indices ranked by descending expected_hit_score — the fixed
  /// field ordering used by the stats fallback and baselines.
  std::vector<std::size_t> fields_by_expected_score() const;
};

/// Compute statistics for every column. Token lengths use the global
/// tokenizer, read from the table's dictionary (each distinct value is
/// counted once per dictionary, then cached).
TableStats compute_stats(const Table& t);

}  // namespace llmq::table
