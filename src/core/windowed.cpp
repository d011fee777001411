#include "core/windowed.hpp"

#include <chrono>
#include <numeric>
#include <stdexcept>

namespace llmq::core {

WindowedResult windowed_ggr(const table::Table& t, const table::FdSet& fds,
                            const WindowedOptions& options) {
  if (t.num_rows() == 0) throw std::invalid_argument("windowed_ggr: empty table");
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();

  const std::size_t n = t.num_rows();
  const std::size_t window =
      options.window_rows == 0 ? n : std::max<std::size_t>(1, options.window_rows);

  WindowedResult out;
  std::vector<std::size_t> row_order;
  std::vector<std::vector<std::size_t>> field_orders;
  row_order.reserve(n);
  field_orders.reserve(n);

  const FdClosures closures = fd_closures(t.schema(), fds);
  for (std::size_t begin = 0; begin < n; begin += window) {
    const std::size_t end = std::min(n, begin + window);
    std::vector<std::size_t> window_rows(end - begin);
    std::iota(window_rows.begin(), window_rows.end(), begin);
    GgrResult res = ggr(t, window_rows, closures, options.ggr);
    for (std::size_t pos = 0; pos < res.ordering.num_rows(); ++pos) {
      // Remap window-local row ids back to the full table.
      row_order.push_back(begin + res.ordering.row_at(pos));
      field_orders.push_back(res.ordering.fields_at(pos));
    }
    out.counters.recursion_nodes += res.counters.recursion_nodes;
    out.counters.groups_scored += res.counters.groups_scored;
    out.counters.fallbacks += res.counters.fallbacks;
    out.counters.fd_fields_skipped += res.counters.fd_fields_skipped;
    ++out.windows;
  }

  out.ordering = Ordering(std::move(row_order), std::move(field_orders));
  out.phc = phc(t, out.ordering, options.ggr.measure);
  out.solve_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return out;
}

}  // namespace llmq::core
