// llmq benchmark driver: one workload per process.
//
//   llmq_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--out <dir>]
//
// --trace 0 times the workload and prints the end-to-end metrics;
// --trace 1 runs the separate traced pass and prints the per-layer
// metrics. The last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Exit status is 0 only when every correctness check passed.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "util/stats.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kDefaultSeed = 42;
constexpr std::uint64_t kHeldOutSeed = 20261017;
/// Set-up repetitions per timed run (setup_s is their median): at least
/// kMinSetupReps, more while their sum is under kSetupBudgetS.
constexpr std::size_t kMinSetupReps = 3;
constexpr std::size_t kMaxSetupReps = 60;
constexpr double kSetupBudgetS = 1.0;
/// Traced-run check: layer spans and event intervals must cover at least
/// this share of the traced pass's wall time.
constexpr double kMinCoverage = 0.95;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr,
               "llmq_perfbench: %s\n"
               "usage: llmq_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>]\n"
               "workloads:",
               msg.c_str());
  for (const std::string& w : workload_names())
    std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr,
               "\nseeds: default %llu, held-out %llu\n",
               static_cast<unsigned long long>(kDefaultSeed),
               static_cast<unsigned long long>(kHeldOutSeed));
  std::exit(2);
}

template <typename T>
T parse_number(const std::string& flag, const std::string& text) {
  T v{};
  const char* b = text.data();
  const char* e = b + text.size();
  const auto [p, ec] = std::from_chars(b, e, v);
  if (text.empty() || ec != std::errc() || p != e)
    usage_error("malformed number for " + flag + ": '" + text + "'");
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  std::map<std::string, std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") usage_error("help requested");
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--out")
      usage_error("unknown argument '" + flag + "'");
    if (i + 1 >= argc) usage_error(flag + " needs a value");
    if (!seen.emplace(flag, argv[i + 1]).second)
      usage_error(flag + " given twice");
    ++i;
  }
  if (!seen.count("--workload")) usage_error("--workload is required");
  o.workload = seen["--workload"];
  if (!make_workload(o.workload))
    usage_error("unknown workload '" + o.workload + "'");
  if (seen.count("--seed"))
    o.seed = parse_number<std::uint64_t>("--seed", seen["--seed"]);
  if (seen.count("--seconds")) {
    o.seconds = parse_number<double>("--seconds", seen["--seconds"]);
    if (!(o.seconds > 0.0 && o.seconds <= 600.0))
      usage_error("--seconds must be in (0, 600]");
  }
  if (seen.count("--trace")) {
    const auto t = parse_number<int>("--trace", seen["--trace"]);
    if (t != 0 && t != 1) usage_error("--trace must be 0 or 1");
    o.trace = t == 1;
  }
  if (seen.count("--out")) {
    o.out_dir = seen["--out"];
    if (o.out_dir.empty()) usage_error("--out must not be empty");
  }
  return o;
}

double median(std::vector<double> xs) { return llmq::util::percentile(xs, 50.0); }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_metric(const Metric& m) {
  std::printf("  %-28s %18.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

/// The result line. Non-finite values become null so the line stays JSON
/// (and the run is already marked incorrect).
void print_result(const Outcome& o, const std::vector<Metric>& metrics) {
  const bool correct = o.failed == 0 && o.errors.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": ", i ? ", " : "", m.name.c_str());
    if (std::isfinite(m.value))
      std::printf("%.17g", m.value);
    else
      std::printf("null");
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void report_errors(const Outcome& o) {
  for (const std::string& e : o.errors)
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
}

int finish(Outcome& o, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    if (!std::isfinite(m.value)) o.fail(0, m.name + " is not finite");
  report_errors(o);
  print_result(o, metrics);
  return o.failed == 0 && o.errors.empty() ? 0 : 1;
}

/// Moves the process to the next allowed CPU before each timed pass. On
/// a shared host the CPUs of one machine run at different speeds, and a
/// process that stays on one of them for a whole run takes its speed;
/// rotating makes every run sample all of them.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return;
    allowed_ = set;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof allowed_, &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t allowed_{};
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// --trace 0: repeat the set-up (setup_s is the median), warm up once, then
/// time passes for `seconds`; every pass must reproduce the warm-up's
/// simulated metrics.
int timed_run(Workload& w, const Options& opt) {
  CpuRotation cpus;
  std::vector<double> setup_s;
  double setup_total = 0.0;
  while (setup_s.size() < kMinSetupReps ||
         (setup_total < kSetupBudgetS && setup_s.size() < kMaxSetupReps)) {
    cpus.next();
    const double c0 = thread_cpu_seconds();
    w.setup(opt.seed, nullptr);
    setup_s.push_back(thread_cpu_seconds() - c0);
    setup_total += setup_s.back();
  }

  Outcome total = w.run();  // warm-up; its metrics are the reference
  std::vector<double> rates, wall_rates;
  const auto start = Clock::now();
  while (rates.empty() || seconds_since(start) < opt.seconds) {
    cpus.next();
    const auto t0 = Clock::now();
    const double c0 = thread_cpu_seconds();
    Outcome o = w.run();
    const auto n = static_cast<double>(o.invocations);
    rates.push_back(n / (thread_cpu_seconds() - c0));
    wall_rates.push_back(n / seconds_since(t0));
    require_same_sim(total, o, "repeated pass");
    total.attempted += o.attempted;
    total.failed += o.failed;
    for (const std::string& e : o.errors) total.fail(0, e);
  }
  w.reference(total);

  std::printf("workload %s seed %llu: %zu timed passes in %.2f s, set-up "
              "x%zu\n",
              w.name(), static_cast<unsigned long long>(opt.seed),
              rates.size(), seconds_since(start), setup_s.size());
  std::printf("  wall-clock req/s (median, not gated): %.6g\n",
              median(wall_rates));
  for (const std::string& n : total.notes) std::printf("  %s\n", n.c_str());

  static const char* const kSimOrder[] = {
      "phr",           "sim_jct_s",     "sim_p50_ttft_s",
      "sim_p99_ttft_s", "sim_p99_itl_s", "sim_goodput_rps"};
  std::vector<Metric> metrics = {
      {"req_per_s", median(rates), "1/s"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"}};
  for (const char* name : kSimOrder) {
    const Metric* m = total.find_sim(name);
    if (!m) {
      total.fail(0, std::string("metric ") + name + " not produced");
      continue;
    }
    metrics.push_back(*m);
  }
  std::printf("end-to-end metrics:\n");
  for (const Metric& m : metrics) print_metric(m);
  std::printf("workload-only simulated metrics:\n");
  for (const Metric& m : total.sim)
    if (std::find(std::begin(kSimOrder), std::end(kSimOrder), m.name) ==
        std::end(kSimOrder))
      print_metric(m);
  std::printf("requests: attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(total.attempted),
              static_cast<unsigned long long>(total.failed));
  return finish(total, metrics);
}

double counter(const Outcome& o, const char* name) {
  for (const Metric& m : o.counters)
    if (m.name == name) return m.value;
  return 0.0;
}

/// How a traced pass's wall time splits between its own work (the
/// bench.iteration spans), the benchmark's glue inside them, and the
/// prompt replay outside them.
struct PassSplit {
  double wall = 0.0;    // bench.iteration spans
  double glue = 0.0;    // self time of bench.* spans inside them
  double replay = 0.0;  // bench.replay_prompts spans (outside them)
  double replay_query = 0.0, replay_tok = 0.0;
};

PassSplit split_pass(const Tracer& tr) {
  PassSplit p;
  const auto& spans = tr.spans();
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent >= 0)
      child_ns[static_cast<std::size_t>(spans[i].parent)] +=
          spans[i].end_ns - spans[i].start_ns;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    const double dur = 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
    const bool replay = std::strcmp(s.name, "bench.replay_prompts") == 0;
    if (s.parent == -1 && std::strcmp(s.name, "bench.iteration") == 0)
      p.wall += dur;
    if (replay) p.replay += dur;
    if (s.layer == Layer::Bench && !replay)
      p.glue += dur - 1e-9 * static_cast<double>(child_ns[i]);
    if (s.parent >= 0 &&
        std::strcmp(spans[static_cast<std::size_t>(s.parent)].name,
                    "bench.replay_prompts") == 0)
      (s.layer == Layer::Query ? p.replay_query : p.replay_tok) += dur;
  }
  return p;
}

/// --trace 1: one traced set-up, then untraced and traced layered passes
/// in alternation for the budget. The tracing overhead compares their
/// median walls; the per-layer figures come from the last traced pass.
int traced_run(Workload& w, const Options& opt) {
  using llmq::obs::EventKind;
  CpuRotation cpus;
  Tracer setup_tr;
  {
    Tracer::Scope s(&setup_tr, "bench.setup", Layer::Bench);
    w.setup(opt.seed, &setup_tr);
  }

  Outcome total = w.layered(nullptr);  // warm-up; the reference metrics
  Outcome traced;
  std::unique_ptr<Tracer> last;
  std::vector<double> untraced_s, traced_s;
  const auto merge = [&total](Outcome& o, const char* what) {
    require_same_sim(total, o, what);
    total.attempted += o.attempted;
    total.failed += o.failed;
    for (const std::string& e : o.errors) total.fail(0, e);
  };
  const auto start = Clock::now();
  while (traced_s.empty() || seconds_since(start) < opt.seconds) {
    cpus.next();
    auto t0 = Clock::now();
    Outcome o = w.layered(nullptr);
    untraced_s.push_back(seconds_since(t0));
    merge(o, "repeated untraced pass");

    auto tr = std::make_unique<Tracer>();
    t0 = Clock::now();
    traced = w.layered(tr.get());
    traced_s.push_back(seconds_since(t0) - split_pass(*tr).replay);
    merge(traced, "traced vs untraced pass");
    last = std::move(tr);
  }
  const Tracer& tr = *last;
  const PassSplit split = split_pass(tr);
  const double wall = split.wall;
  const double glue = split.glue;
  const double replay_query = split.replay_query;
  const double replay_tok = split.replay_tok;
  const double coverage = wall > 0.0 ? 1.0 - glue / wall : 0.0;
  const double overhead = median(traced_s) / median(untraced_s) - 1.0;
  const auto share = [&](double s) { return wall > 0.0 ? s / wall : 0.0; };
  const double core_s = tr.layer_seconds(Layer::Core);
  const double query_s =
      std::max(0.0, tr.layer_seconds(Layer::Query) - replay_query);
  const double tok_s =
      std::max(0.0, tr.layer_seconds(Layer::Tokenizer) - replay_tok);
  const double llm_s = tr.layer_seconds(Layer::Llm);
  const double cache_s = tr.layer_seconds(Layer::Cache);
  const double serve_s = tr.layer_seconds(Layer::Serve);
  const double demote_s = tr.event_seconds(EventKind::TierDemote);
  const auto count = [&](EventKind k) {
    return static_cast<double>(tr.event_count(k));
  };

  std::vector<Metric> metrics = {
      {"data.gen_s", setup_tr.span_seconds("data.generate_dataset"), "s"},
      {"serve.workload_gen_s",
       setup_tr.span_seconds("serve.generate_arrivals") +
           setup_tr.span_seconds("serve.generate_sessions"),
       "s"},
      {"core.plan_s", core_s, "s"},
      {"core.plan_share", share(core_s), "fraction"},
      {"core.ggr_nodes", counter(traced, "core.ggr_nodes"), "count"},
      {"core.ggr_groups_scored", counter(traced, "core.ggr_groups_scored"),
       "count"},
      {"query.render_s", tr.span_seconds("query.render"), "s"},
      {"query.share", share(query_s), "fraction"},
      {"tokenizer.encode_s", tr.span_seconds("tokenizer.encode"), "s"},
      {"tokenizer.share", share(tok_s), "fraction"},
      {"query.prompt_tokens", counter(traced, "query.prompt_tokens"),
       "count"},
      {"llm.engine_s", llm_s, "s"},
      {"llm.share", share(llm_s), "fraction"},
      {"llm.decode_steps", counter(traced, "llm.decode_steps"), "count"},
      {"llm.mean_batch", counter(traced, "llm.mean_batch"), "requests"},
      {"llm.prefill_chunks", counter(traced, "llm.prefill_chunks"), "count"},
      {"llm.preemptions", counter(traced, "llm.preemptions"), "count"},
      {"llm.recompute_tokens", counter(traced, "llm.recompute_tokens"),
       "count"},
      {"cache.s", cache_s, "s"},
      {"cache.share", share(cache_s), "fraction"},
      {"cache.lookups", counter(traced, "cache.lookups"), "count"},
      {"cache.lookup_tokens", counter(traced, "cache.lookup_tokens"),
       "count"},
      {"cache.hit_frac", counter(traced, "cache.hit_frac"), "fraction"},
      {"cache.cancelled_lookups", count(EventKind::CacheCancelLookup),
       "count"},
      {"cache.evict_calls", count(EventKind::CacheEvict), "count"},
      {"cache.evicted_blocks", counter(traced, "cache.evicted_blocks"),
       "count"},
      {"cache.demote_s", demote_s, "s"},
      {"cache.demote_share", share(demote_s), "fraction"},
      {"cache.demote_calls", count(EventKind::TierDemote), "count"},
      {"cache.demoted_blocks", counter(traced, "cache.demoted_blocks"),
       "count"},
      {"cache.promoted_blocks", counter(traced, "cache.promoted_blocks"),
       "count"},
      {"serve.driver_s", serve_s, "s"},
      {"serve.share", share(serve_s), "fraction"},
      {"serve.windows", counter(traced, "serve.windows"), "count"},
      {"serve.route_decisions", count(EventKind::RouteDecision), "count"},
      {"serve.load_imbalance", counter(traced, "serve.load_imbalance"),
       "ratio"},
      {"serve.sim_p99_queue_s", counter(traced, "serve.sim_p99_queue_s"),
       "sim_s"},
      {"serve.session_spawns", count(EventKind::TurnSpawn), "count"},
      {"serve.dedup_hits", counter(traced, "serve.dedup_hits"), "count"},
      {"obs.events", static_cast<double>(tr.total_events()), "count"},
      {"obs.trace_overhead_frac", overhead, "fraction"},
      {"obs.layer_coverage", coverage, "fraction"},
      {"bench.traced_wall_s", wall, "s"},
  };

  if (coverage < kMinCoverage) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "layer self times cover %.4f of the traced wall time, "
                  "below %.2f",
                  coverage, kMinCoverage);
    total.fail(0, buf);
  }

  std::filesystem::create_directories(opt.out_dir);
  const std::string label = std::string(w.name()) + "-seed" +
                            std::to_string(opt.seed);
  const std::string path = opt.out_dir + "/" + label + ".trace.json";
  const std::string setup_path = opt.out_dir + "/" + label + ".setup.trace.json";
  if (!tr.write_json(path, label)) total.fail(0, "cannot write " + path);
  if (!setup_tr.write_json(setup_path, label + " set-up"))
    total.fail(0, "cannot write " + setup_path);

  std::printf("workload %s seed %llu: %zu traced and %zu untraced passes; "
              "last traced pass %.3f s; spans -> %s\n",
              w.name(), static_cast<unsigned long long>(opt.seed),
              traced_s.size(), untraced_s.size(), wall, path.c_str());
  std::printf("  %-12s %12s %9s\n", "layer", "self (s)", "share");
  for (std::size_t l = 0; l < kNumLayers; ++l) {
    const auto layer = static_cast<Layer>(l);
    const bool in_pass = layer != Layer::Data && layer != Layer::ServeGen;
    double s = (in_pass ? tr : setup_tr).layer_seconds(layer);
    if (layer == Layer::Query) s = query_s;
    if (layer == Layer::Tokenizer) s = tok_s;
    if (layer == Layer::Bench) s = glue;
    std::printf("  %-12s %12.6f %9s\n", layer_name(layer), s,
                in_pass ? std::to_string(share(s)).c_str() : "(set-up)");
  }
  std::printf("per-layer metrics:\n");
  for (const Metric& m : metrics) print_metric(m);
  std::printf("requests: attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(total.attempted),
              static_cast<unsigned long long>(total.failed));
  return finish(total, metrics);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse(argc, argv);
  std::unique_ptr<Workload> w = make_workload(opt.workload);
  try {
    return opt.trace ? traced_run(*w, opt) : timed_run(*w, opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "llmq_perfbench: %s failed: %s\n", w->name(),
                 e.what());
    return 1;
  }
}
