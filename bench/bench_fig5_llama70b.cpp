// Fig 5 — filter queries with Llama-3-70B on 8x L4 (tensor parallel).
// Paper: Cache (GGR) achieves 1.9-3.3x over Cache (Original).

#include "bench_common.hpp"

namespace llmq::bench {

int fig5_llama70b(const BenchOptions& opt, JsonReport&) {
  util::TablePrinter tp({"dataset", "rows", "Cache Orig (s)", "Cache GGR (s)",
                         "GGR vs Orig", "GGR PHR", "Orig PHR"});
  for (const auto& spec : data::queries_of_type(data::QueryType::Filter)) {
    const auto d = load(spec.dataset, opt);
    const auto cmp = query::compare_methods(d, spec, llm::llama3_70b(),
                                            llm::l4_x8(),
                                            opt.kv_fraction(spec.dataset));
    tp.add_row({d.name, std::to_string(d.table.num_rows()),
                secs(cmp.cache_original.total_seconds),
                secs(cmp.cache_ggr.total_seconds),
                query::format_speedup(cmp.speedup_vs_original()),
                pct(cmp.cache_ggr.overall_phr()),
                pct(cmp.cache_original.overall_phr())});
  }
  tp.print();
  std::printf("\npaper reference: Movies 3.2x, Products 3.3x, BIRD 2.6x, "
              "PDMX 1.9x, Beer 2.2x over Cache (Original)\n");
  return 0;
}

}  // namespace llmq::bench
