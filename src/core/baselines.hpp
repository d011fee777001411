#pragma once
// Baseline orderings (paper §6.1.3) and the stats-ranked fixed ordering
// that GGR falls back to on early stopping (§4.2.2).

#include "core/ordering.hpp"
#include "core/phc.hpp"
#include "table/stats.hpp"
#include "table/table.hpp"
#include "util/rng.hpp"

namespace llmq::core {

/// "Cache (Original)" / "No Cache": data exactly as stored — original row
/// order, schema field order.
Ordering original_ordering(const table::Table& t);

/// Fixed field ordering ranked by expected PHC contribution
/// (E[len_tokens]^2 * (n/cardinality - 1), table/stats.hpp), with rows
/// sorted lexicographically under that field priority. This is both a
/// strong fixed-order baseline and the GGR early-stop fallback.
Ordering stats_fixed_ordering(const table::Table& t);

/// Same, restricted to a sub-view (rows/cols as original indices). The
/// returned Ordering is expressed in original indices and covers exactly
/// `rows`; `cols` lists the fields to order (callers append the rest).
/// Exposed for GGR's internal fallback.
struct SubOrdering {
  std::vector<std::size_t> row_order;               // original row ids
  std::vector<std::size_t> field_order;             // original col ids
};
/// `closures` (optional, indexed by original column id) applies §4.2.1 to
/// the fallback too: fields functionally tied to a ranked field are placed
/// directly after it, so values that repeat *together* stay contiguous in
/// the fixed order.
SubOrdering stats_fixed_subordering(
    const table::Table& t, const std::vector<std::uint32_t>& rows,
    const std::vector<std::uint32_t>& cols,
    const std::vector<std::vector<std::size_t>>* closures = nullptr);

/// Same over the rows of `cells` (view positions; GGR's fallback). Only
/// its ids and token counts are read, never its lengths.
SubOrdering stats_fixed_subordering(
    const CellLengths& cells, const std::vector<std::uint32_t>& rows,
    const std::vector<std::uint32_t>& cols,
    const std::vector<std::vector<std::size_t>>* closures = nullptr);

/// Rows sorted lexicographically with the *original* field order (ablation:
/// isolates "sorting helps" from "field choice helps").
Ordering sorted_original_fields(const table::Table& t);

/// Uniformly random row order and per-row field orders (tests, worst case).
Ordering random_ordering(const table::Table& t, util::Rng& rng);

}  // namespace llmq::core
