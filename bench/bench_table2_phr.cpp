// Table 2 — prefix hit rate (PHR %) of the LLM filter and RAG queries for
// the Original and GGR orderings.
// Paper: Original {35,27,10,12,50,11,11}%, GGR {86,83,85,57,80,67,70}%.

#include "bench_common.hpp"

namespace llmq::bench {

int table2_phr(const BenchOptions& opt, JsonReport& json) {
  struct Row {
    const char* dataset;
    const char* query;
    double paper_orig;
    double paper_ggr;
  };
  const Row rows[] = {{"movies", "movies-filter", 35, 86},
                      {"products", "products-filter", 27, 83},
                      {"bird", "bird-filter", 10, 85},
                      {"pdmx", "pdmx-filter", 12, 57},
                      {"beer", "beer-filter", 50, 80},
                      {"fever", "fever-rag", 11, 67},
                      {"squad", "squad-rag", 11, 70}};

  util::TablePrinter tp({"dataset", "rows", "Original PHR", "GGR PHR",
                         "delta", "paper Orig", "paper GGR"});
  for (const auto& r : rows) {
    const PhrPair p = original_vs_ggr_phr(r.dataset, r.query, opt);
    tp.add_row({p.dataset, std::to_string(p.rows), pct(p.original),
                pct(p.ggr), "+" + util::fmt(100 * (p.ggr - p.original), 1),
                util::fmt(r.paper_orig, 0) + "%",
                util::fmt(r.paper_ggr, 0) + "%"});
    json.add("phr", {{"dataset", r.dataset},
                     {"rows", p.rows},
                     {"original_phr", p.original},
                     {"ggr_phr", p.ggr},
                     {"paper_original_phr", r.paper_orig / 100.0},
                     {"paper_ggr_phr", r.paper_ggr / 100.0}});
  }
  tp.print();
  return 0;
}

}  // namespace llmq::bench
