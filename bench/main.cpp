// llmq_bench — the one driver for every paper-reproduction bench.
//
//   llmq_bench <bench> [--scale f] [--seed s] [--full] [--json path]
//              [--trace path]
//
// kBenches is the registry: one {name, traces, fn, title} entry per
// bench/bench_<name>.cpp. The driver parses the flags once, prints the
// header from the entry's title, runs the entry against a JsonReport
// named "bench_<name>" (the name the BENCH_*.json goldens carry), writes
// the report when --json is given, and exits with the entry's status.
// Parsing is strict: a missing or unknown bench name, an unknown flag, a
// flag missing its value, a malformed number, or --trace on a bench that
// does not trace all exit 2 instead of running some other configuration.

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_common.hpp"

namespace llmq::bench {
int ablation_ggr(const BenchOptions&, JsonReport&);
int ablation_serving(const BenchOptions&, JsonReport&);
int chunked_prefill(const BenchOptions&, JsonReport&);
int concurrent_queries(const BenchOptions&, JsonReport&);
int fig1_casestudy(const BenchOptions&, JsonReport&);
int fig3a_filter(const BenchOptions&, JsonReport&);
int fig3b_projection_rag(const BenchOptions&, JsonReport&);
int fig4_multi_agg(const BenchOptions&, JsonReport&);
int fig5_llama70b(const BenchOptions&, JsonReport&);
int fig6_accuracy(const BenchOptions&, JsonReport&);
int micro(const BenchOptions&, JsonReport&);
int priority_preemption(const BenchOptions&, JsonReport&);
int scenarios(const BenchOptions&, JsonReport&);
int serving_online(const BenchOptions&, JsonReport&);
int serving_router(const BenchOptions&, JsonReport&);
int table2_phr(const BenchOptions&, JsonReport&);
int table3_api_cost(const BenchOptions&, JsonReport&);
int table4_est_savings(const BenchOptions&, JsonReport&);
int table5_solver_time(const BenchOptions&, JsonReport&);
int table6_ophr_vs_ggr(const BenchOptions&, JsonReport&);
int table7_llama1b(const BenchOptions&, JsonReport&);
int tiered_cache(const BenchOptions&, JsonReport&);
}  // namespace llmq::bench

namespace {

using llmq::bench::BenchOptions;
using llmq::bench::JsonReport;
namespace b = llmq::bench;

struct Bench {
  const char* name;
  bool traces;  // accepts --trace
  int (*fn)(const BenchOptions&, JsonReport&);
  const char* title;
};

const Bench kBenches[] = {
    {"fig1_casestudy", false, b::fig1_casestudy,
     "Fig 1 — fixed field ordering case studies"},
    {"table2_phr", false, b::table2_phr,
     "Table 2 — PHR (%), filter + RAG queries [simulated]"},
    {"fig3a_filter", false, b::fig3a_filter,
     "Fig 3a — filter queries (T1), Llama-3-8B, 1x L4 [simulated]"},
    {"fig3b_projection_rag", false, b::fig3b_projection_rag,
     "Fig 3b — projection (T2) + RAG (T5), Llama-3-8B, 1x L4 [simulated]"},
    {"fig4_multi_agg", false, b::fig4_multi_agg,
     "Fig 4 — multi-LLM (T3) + aggregation (T4), Llama-3-8B [simulated]"},
    {"fig5_llama70b", false, b::fig5_llama70b,
     "Fig 5 — filter queries (T1), Llama-3-70B, 8x L4 TP [simulated]"},
    {"fig6_accuracy", false, b::fig6_accuracy,
     "Fig 6 — accuracy, original vs GGR ordering"},
    {"table3_api_cost", false, b::table3_api_cost,
     "Table 3 — OpenAI / Anthropic API cost, FEVER-1000, fields x5"},
    {"table4_est_savings", false, b::table4_est_savings,
     "Table 4 — estimated cost savings from PHR [simulated]"},
    {"table5_solver_time", false, b::table5_solver_time,
     "Table 5 — GGR solver time (s)"},
    {"table6_ophr_vs_ggr", false, b::table6_ophr_vs_ggr,
     "Table 6 — OPHR vs GGR on small samples"},
    {"table7_llama1b", false, b::table7_llama1b,
     "Table 7 — filter queries (T1), Llama-3.2-1B, 1x L4 [simulated]"},
    {"ablation_ggr", false, b::ablation_ggr,
     "Ablations — GGR design choices"},
    {"ablation_serving", false, b::ablation_serving,
     "Ablations — serving engine"},
    {"serving_online", true, b::serving_online,
     "Online serving — streaming scheduler, cache-aware windowed reordering"},
    {"serving_router", false, b::serving_router,
     "Replicated serving — cache-affinity routing vs naive sharding"},
    {"concurrent_queries", false, b::concurrent_queries,
     "Concurrent query serving — shared fleet vs serial cold-cache"},
    {"priority_preemption", false, b::priority_preemption,
     "Priority classes — engine-level preemption under overload"},
    {"chunked_prefill", true, b::chunked_prefill,
     "Chunked prefill — decode stalls, tails, and admission scaling"},
    {"scenarios", false, b::scenarios,
     "Serving scenarios — sessions, agents & length-aware scheduling"},
    {"tiered_cache", false, b::tiered_cache,
     "Tiered KV cache + elastic fleet vs flat cache"},
    {"micro", false, b::micro,
     "hot-path microbenchmarks"},
};

const char* const kProg = "llmq_bench";

/// The usage line and the registered benches, one per line as
/// `  <name>  <title>`, with ` [--trace]` after the benches that trace.
void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: %s <bench> [--scale f] [--seed s] [--full] "
               "[--json path] [--trace path]\n"
               "benches:\n",
               kProg);
  for (const Bench& e : kBenches)
    std::fprintf(out, "  %-22s %s%s\n", e.name, e.title,
                 e.traces ? " [--trace]" : "");
}

/// Print `msg` and the usage to stderr, then exit with code 2 (the
/// conventional "bad command line" status).
[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "%s: %s\n", kProg, msg.c_str());
  print_usage(stderr);
  std::exit(2);
}

const Bench* find_bench(const std::string& name) {
  for (const Bench& e : kBenches)
    if (name == e.name) return &e;
  return nullptr;
}

/// Strict parsing: the first non-flag argument names the bench; every
/// other argument is a flag and its value.
std::pair<const Bench*, BenchOptions> parse_args(int argc, char** argv) {
  BenchOptions opt;
  const Bench* bench = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.empty() || arg[0] != '-') {
      if (bench != nullptr) usage_error("unexpected argument '" + arg + "'");
      bench = find_bench(arg);
      if (bench == nullptr) usage_error("unknown bench '" + arg + "'");
      continue;
    }
    if (arg == "--full") {
      opt.scale = 1.0;
      continue;
    }
    if (arg == "--help") {
      print_usage(stdout);
      std::printf(
          "--trace writes a Perfetto trace of one representative run (load "
          "it at\nui.perfetto.dev; <path>.jsonl gets the raw events)\n");
      std::exit(0);
    }
    if (arg != "--scale" && arg != "--seed" && arg != "--json" &&
        arg != "--trace")
      usage_error("unknown flag '" + arg + "'");
    if (i + 1 >= argc) usage_error(arg + " needs a value");
    const char* value = argv[++i];
    char* end = nullptr;
    errno = 0;
    if (arg == "--scale") {
      opt.scale = std::strtod(value, &end);
      if (end == value || *end != '\0' || errno != 0 ||
          !std::isfinite(opt.scale) || opt.scale <= 0.0)
        usage_error(std::string("--scale must be a positive number, got '") +
                    value + "'");
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0' || errno != 0 || value[0] == '-')
        usage_error(std::string("--seed must be a non-negative integer, "
                                "got '") + value + "'");
    } else if (arg == "--json") {
      opt.json_path = value;
    } else {
      opt.trace_path = value;
    }
  }
  if (bench == nullptr) usage_error("missing bench name");
  if (!opt.trace_path.empty() && !bench->traces)
    usage_error(std::string("bench '") + bench->name +
                "' does not write a trace; drop --trace");
  return {bench, opt};
}

}  // namespace

int main(int argc, char** argv) {
  const auto [bench, opt] = parse_args(argc, argv);
  std::printf("=== %s ===\n", bench->title);
  std::printf("(synthetic reproduction; scale=%.3g of paper dataset sizes, "
              "seed=%llu — compare shapes/ratios, not absolute values)\n\n",
              opt.scale, static_cast<unsigned long long>(opt.seed));
  JsonReport json(std::string("bench_") + bench->name, opt);
  const int status = bench->fn(opt, json);
  json.write();
  return status;
}
