#pragma once
// Shared helpers for the paper-reproduction benches. Each bench is one
// function `int fn(const BenchOptions&, JsonReport&)` registered in
// main.cpp's table and run as `llmq_bench <name>`; the driver owns the
// flags (see BenchOptions), the header and the JSON report's lifetime.
// Scaled runs also scale the KV pool by the same fraction so the
// data-to-cache ratio (the regime that makes reordering matter) is
// preserved; see ExecConfig::scale_kv_pool.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/benchmark_suite.hpp"
#include "data/generators.hpp"
#include "query/executor.hpp"
#include "query/metrics.hpp"
#include "serve/online.hpp"
#include "util/json.hpp"
#include "util/simd.hpp"
#include "util/strings.hpp"
#include "util/table_printer.hpp"

namespace llmq::bench {

/// The driver's flags, parsed once for whichever bench runs:
///   --scale <f>    fraction of the paper's dataset sizes (default 0.1)
///   --seed <s>     dataset seed (default 42)
///   --full         shorthand for --scale 1.0
///   --json <path>  also write the JsonReport (BENCH_*.json format)
///   --trace <path> write a Perfetto trace of one representative run
///                  (only benches registered as tracing accept it)
struct BenchOptions {
  double scale = 0.1;
  std::uint64_t seed = 42;
  std::string json_path;   // empty = no JSON output
  std::string trace_path;  // empty = tracing disabled (--trace <path>)

  std::size_t rows_for(const std::string& dataset_key) const {
    const auto full = data::paper_rows(dataset_key);
    const auto n = static_cast<std::size_t>(static_cast<double>(full) * scale);
    return std::max<std::size_t>(50, std::min(n, full));
  }

  double kv_fraction(const std::string& dataset_key) const {
    return static_cast<double>(rows_for(dataset_key)) /
           static_cast<double>(data::paper_rows(dataset_key));
  }
};

/// One key of a JSON result record: either numeric or string.
struct JsonField {
  std::string key;
  bool is_number = false;
  double num = 0.0;
  std::string str;
  JsonField(std::string k, double v)
      : key(std::move(k)), is_number(true), num(v) {}
  JsonField(std::string k, int v)
      : key(std::move(k)), is_number(true), num(v) {}
  JsonField(std::string k, std::size_t v)
      : key(std::move(k)), is_number(true), num(static_cast<double>(v)) {}
  JsonField(std::string k, std::string v)
      : key(std::move(k)), str(std::move(v)) {}
  JsonField(std::string k, const char* v) : key(std::move(k)), str(v) {}
};

/// The host's CPU model as /proc/cpuinfo names it; "unknown" where that
/// file or its "model name" line is missing (non-Linux, some aarch64).
inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos)
      return std::string(util::trim(std::string_view(line).substr(colon + 1)));
  }
  return "unknown";
}

/// Machine-readable bench output (--json): named sections of records,
/// written once via util::JsonWriter when the report is finalized.
///
///   { "bench": ..., "scale": ..., "seed": ..., "schema_version": ...,
///     "provenance": { build_type, sanitizer, compiler, compiler_version,
///                     cpu_model, hardware_threads, isa },
///     "sections": { "<name>": [ { k: v, ... }, ... ], ... } }
///
/// Provenance pins the toolchain and host a BENCH_*.json snapshot came
/// from so a golden-vs-rerun diff can tell "the code regressed" apart from
/// "you are comparing a sanitizer debug build against a release golden"
/// or "you are comparing this machine's µs/op against another machine's".
/// The host fingerprint is the CPU model, the hardware thread count and
/// the ISA the token kernels dispatched to (util/simd.hpp).
class JsonReport {
 public:
  JsonReport(std::string bench_name, const BenchOptions& opt)
      : name_(std::move(bench_name)), opt_(opt) {}

  void add(const std::string& section, std::vector<JsonField> record) {
    if (opt_.json_path.empty()) return;  // recording disabled
    for (auto& [name, records] : sections_) {
      if (name == section) {
        records.push_back(std::move(record));
        return;
      }
    }
    sections_.emplace_back(section,
                           std::vector<std::vector<JsonField>>{
                               std::move(record)});
  }

  /// Write the report if --json was given; the driver calls it once, after
  /// the bench returns. Prints the output path on success.
  void write() const {
    if (opt_.json_path.empty()) return;
    util::JsonWriter w;
    w.begin_object();
    w.key("bench").value(name_);
    w.key("scale").value(opt_.scale);
    w.key("seed").value(static_cast<std::int64_t>(opt_.seed));
    // Bump when the envelope shape (not section contents) changes.
    w.key("schema_version").value(std::int64_t{2});
    w.key("provenance").begin_object();
#ifdef NDEBUG
    w.key("build_type").value("release");
#else
    w.key("build_type").value("debug");
#endif
#if defined(LLMQ_SANITIZE_BUILD)
    w.key("sanitizer").value("address,undefined");
#else
    w.key("sanitizer").value("none");
#endif
#if defined(__clang__)
    w.key("compiler").value("clang");
    w.key("compiler_version")
        .value(std::to_string(__clang_major__) + "." +
               std::to_string(__clang_minor__) + "." +
               std::to_string(__clang_patchlevel__));
#elif defined(__GNUC__)
    w.key("compiler").value("gcc");
    w.key("compiler_version")
        .value(std::to_string(__GNUC__) + "." +
               std::to_string(__GNUC_MINOR__) + "." +
               std::to_string(__GNUC_PATCHLEVEL__));
#else
    w.key("compiler").value("unknown");
    w.key("compiler_version").value("0");
#endif
    w.key("cpu_model").value(cpu_model());
    w.key("hardware_threads")
        .value(static_cast<std::int64_t>(std::thread::hardware_concurrency()));
    w.key("isa").value(util::simd::name(util::simd::active_isa()));
    w.end_object();
    w.key("sections").begin_object();
    for (const auto& [section, records] : sections_) {
      w.key(section).begin_array();
      for (const auto& record : records) {
        w.begin_object();
        for (const auto& f : record) {
          w.key(f.key);
          if (f.is_number)
            w.value(f.num);
          else
            w.value(f.str);
        }
        w.end_object();
      }
      w.end_array();
    }
    w.end_object();
    w.end_object();
    std::ofstream out(opt_.json_path);
    out << w.str() << "\n";
    out.flush();
    if (out.good())
      std::printf("\n[json results written to %s]\n", opt_.json_path.c_str());
    else
      std::fprintf(stderr, "\n[error: could not write json to %s]\n",
                   opt_.json_path.c_str());
  }

 private:
  std::string name_;
  BenchOptions opt_;
  // Section insertion order is preserved (vector, not map).
  std::vector<std::pair<std::string, std::vector<std::vector<JsonField>>>>
      sections_;
};

/// Min-of-K wall-clock timing with warm-up: run the workload `warmup`
/// times untimed (populate allocator pools, fault in pages, settle the
/// scheduler), then report the fastest of `reps` timed runs. The minimum
/// — not the mean — is the estimator: wall-clock noise on a shared box is
/// strictly additive, so the fastest observation is the closest to the
/// true cost. Every wall-clock number a bench reports (trace-overhead
/// guard, micro kernels) goes through this one helper so the
/// methodology cannot drift between benches. Wall-clock keys measure the
/// machine, not the simulator: they are golden-diffed only against a
/// golden from the same host (provenance fingerprint).
class WallClockTimer {
 public:
  explicit WallClockTimer(int reps = 5, int warmup = 1)
      : reps_(reps < 1 ? 1 : reps), warmup_(warmup < 0 ? 0 : warmup) {}

  /// Fastest observed wall-clock seconds of `fn()` across the timed reps.
  template <typename Fn>
  double min_seconds(Fn&& fn) const {
    for (int i = 0; i < warmup_; ++i) fn();
    double best = std::numeric_limits<double>::infinity();
    for (int i = 0; i < reps_; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      fn();
      const auto t1 = std::chrono::steady_clock::now();
      best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
  }

  int reps() const { return reps_; }

 private:
  int reps_;
  int warmup_;
};

inline data::Dataset load(const std::string& key, const BenchOptions& opt) {
  data::GenOptions g;
  g.n_rows = opt.rows_for(key);
  g.seed = opt.seed;
  return data::generate_dataset(key, g);
}

/// Format simulated seconds for table cells.
inline std::string secs(double s) { return util::fmt(s, 1); }
inline std::string pct(double f) { return util::fmt(100.0 * f, 1) + "%"; }
/// Simulated seconds as a milliseconds table cell.
inline std::string ms(double seconds, int decimals = 0) {
  return util::fmt(1000.0 * seconds, decimals);
}

/// One priority class's slice of a serving run.
inline const serve::PriorityClassMetrics& cls(const serve::OnlineRunResult& r,
                                              llm::PriorityClass c) {
  return r.per_class[static_cast<std::size_t>(c)];
}

/// Original vs GGR prefix hit rate of one filter/RAG query: the pair
/// Table 2 reports and Table 4 prices.
struct PhrPair {
  std::string dataset;  // display name
  std::size_t rows = 0;
  double original = 0.0;
  double ggr = 0.0;
};

/// Run `query_id` over `dataset` under CacheOriginal and CacheGgr, the KV
/// pool scaled to the dataset's share of the paper's size.
inline PhrPair original_vs_ggr_phr(const std::string& dataset,
                                   const std::string& query_id,
                                   const BenchOptions& opt) {
  const auto d = load(dataset, opt);
  const auto& spec = data::query_by_id(query_id);
  auto cfg_orig = query::ExecConfig::standard(query::Method::CacheOriginal);
  auto cfg_ggr = query::ExecConfig::standard(query::Method::CacheGgr);
  cfg_orig.scale_kv_pool(opt.kv_fraction(dataset));
  cfg_ggr.scale_kv_pool(opt.kv_fraction(dataset));
  return {d.name, d.table.num_rows(),
          query::run_query(d, spec, cfg_orig).overall_phr(),
          query::run_query(d, spec, cfg_ggr).overall_phr()};
}

/// The serving benches' shared workload: the movies-filter query's
/// stage-1 projection of at most `row_cap` generated movies rows, served
/// with that query's prompts and mean output length under a 30 s TTFT
/// SLO. Benches adjust `config` from there; none of them scales the KV
/// pool here, since each sizes its fleet differently.
struct ServeSetup {
  table::Table table;
  table::FdSet fds;
  serve::OnlineConfig config;
  /// Served rows over the paper's movies rows: the fraction that keeps the
  /// data-to-cache ratio of the full-size run (ExecConfig::scale_kv_pool).
  double kv_fraction = 1.0;
};

inline ServeSetup movies_serve_setup(const BenchOptions& opt,
                                     std::size_t row_cap) {
  const char* key = "movies";
  data::GenOptions g;
  g.n_rows = std::min<std::size_t>(opt.rows_for(key), row_cap);
  g.seed = opt.seed;
  data::Dataset d = data::generate_dataset(key, g);
  const data::QuerySpec& spec = data::query_by_id("movies-filter");

  ServeSetup s;
  s.table = spec.stage1.fields.empty() ? d.table
                                       : d.table.project(spec.stage1.fields);
  s.fds = d.fds;
  s.kv_fraction = static_cast<double>(s.table.num_rows()) /
                  static_cast<double>(data::paper_rows(key));
  s.config.prompt.system_prompt = spec.system_prompt;
  s.config.prompt.user_prompt = spec.stage1.user_prompt;
  s.config.avg_output_tokens = spec.stage1.avg_output_tokens;
  s.config.ttft_slo_seconds = 30.0;
  return s;
}

}  // namespace llmq::bench
