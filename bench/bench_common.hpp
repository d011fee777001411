#pragma once
// Shared helpers for the paper-reproduction bench binaries.
//
// Every bench accepts:
//   --scale <f>   fraction of the paper's dataset sizes (default 0.1)
//   --seed <s>    dataset seed (default 42)
//   --full        shorthand for --scale 1.0
//   --json <path> also write results as machine-readable JSON (the
//                 BENCH_*.json perf-trajectory format; see JsonReport)
//   --trace <path> write a Perfetto trace of one representative run
// Any other flag, or a malformed value, exits 2 (parse_options).
// Scaled runs also scale the KV pool by the same fraction so the
// data-to-cache ratio (the regime that makes reordering matter) is
// preserved; see ExecConfig::scale_kv_pool.

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
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
#include "util/json.hpp"
#include "util/simd.hpp"
#include "util/strings.hpp"
#include "util/table_printer.hpp"

namespace llmq::bench {

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

/// Print `msg` and the usage line to stderr, then exit with code 2 (the
/// conventional "bad command line" status).
[[noreturn]] inline void usage_error(const char* prog, const std::string& msg) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s [--scale f] [--seed s] [--full] "
               "[--json path] [--trace path]\n",
               prog, msg.c_str(), prog);
  std::exit(2);
}

/// Strict flag parsing: an unknown flag, a flag missing its value, a
/// number with trailing junk, and a non-positive or non-finite scale all
/// exit 2 instead of silently running some other configuration.
inline BenchOptions parse_options(int argc, char** argv) {
  BenchOptions opt;
  const char* prog = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--full") {
      opt.scale = 1.0;
      continue;
    }
    if (flag == "--help") {
      std::printf(
          "usage: %s [--scale f] [--seed s] [--full] [--json path] "
          "[--trace path]\n"
          "  --trace writes a Perfetto trace of one representative run\n"
          "  (load it at ui.perfetto.dev; <path>.jsonl gets the raw events)\n",
          prog);
      std::exit(0);
    }
    if (flag != "--scale" && flag != "--seed" && flag != "--json" &&
        flag != "--trace")
      usage_error(prog, "unknown flag '" + flag + "'");
    if (i + 1 >= argc) usage_error(prog, flag + " needs a value");
    const char* value = argv[++i];
    char* end = nullptr;
    errno = 0;
    if (flag == "--scale") {
      opt.scale = std::strtod(value, &end);
      if (end == value || *end != '\0' || errno != 0 ||
          !std::isfinite(opt.scale) || opt.scale <= 0.0)
        usage_error(prog, std::string("--scale must be a positive number, "
                                      "got '") + value + "'");
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0' || errno != 0 || value[0] == '-')
        usage_error(prog, std::string("--seed must be a non-negative "
                                      "integer, got '") + value + "'");
    } else if (flag == "--json") {
      opt.json_path = value;
    } else {
      opt.trace_path = value;
    }
  }
  return opt;
}

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

  /// Write the report if --json was given. Safe to call once at the end of
  /// main; prints the output path on success.
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

inline void print_header(const char* title, const BenchOptions& opt) {
  std::printf("=== %s ===\n", title);
  std::printf("(synthetic reproduction; scale=%.3g of paper dataset sizes, "
              "seed=%llu — compare shapes/ratios, not absolute values)\n\n",
              opt.scale, static_cast<unsigned long long>(opt.seed));
}

/// Format simulated seconds for table cells.
inline std::string secs(double s) { return util::fmt(s, 1); }
inline std::string pct(double f) { return util::fmt(100.0 * f, 1) + "%"; }

}  // namespace llmq::bench
