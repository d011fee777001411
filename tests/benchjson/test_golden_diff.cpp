// Golden bench snapshot diffs.
//
// BENCH_*.json at the repo root are committed snapshots of small-scale
// bench runs (the perf-trajectory anchors). This suite re-runs each bench
// at the snapshot's own scale/seed and diffs the *virtual-time* headline
// numbers against the snapshot within tolerance bands: the simulation is
// a pure function of (seed, config), so a drift here is a real behavior
// change — a scheduler tweak moving p99 TTFT, a cache change moving PHR —
// that must be acknowledged by regenerating the snapshot, not discovered
// by downstream tooling. Wall-clock keys measure the host, not the code:
// virtual-time benches never compare them at all, and bench_micro's us/op
// keys are compared only when the golden came from this same host and
// build (provenance fingerprint). Across hosts, bench_micro is held to
// its same-run ratios instead — SIMD speedup over scalar, and child
// lookup cost vs fan-out — which both sides measure on one machine.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/simd.hpp"

#ifndef LLMQ_BIN_DIR
#define LLMQ_BIN_DIR "."
#endif
#ifndef LLMQ_REPO_ROOT
#define LLMQ_REPO_ROOT "."
#endif

namespace llmq {
namespace {

struct DiffKey {
  const char* section;
  const char* key;
  bool relative;  // tolerance as a fraction of the golden value
  double tol;
  // Wall-clock keys (us/op) measure the host, not the simulation: they
  // are only compared when the golden and the rerun were produced by
  // release, sanitizer-free builds on the same host — a Debug or ASan
  // rerun, or another CPU, would fail any honest band. Virtual-time keys
  // never set this.
  bool wallclock = false;
};

struct GoldenSpec {
  const char* name;    // registry name: `llmq_bench <name>`
  const char* golden;  // filename at the repo root
  std::vector<DiffKey> keys;
};

const std::vector<GoldenSpec>& golden_specs() {
  // PHR compares absolutely (it is already a fraction); latency tails
  // relatively, floored at 1 ms so near-zero arms don't demand exactness.
  static const std::vector<GoldenSpec> specs = {
      {"serving_online",
       "BENCH_serving_online.json",
       {{"rate_policy", "phr", false, 0.02},
        {"rate_policy", "p99_ttft_s", true, 0.10},
        {"rate_policy", "goodput_rps", true, 0.10},
        {"deadline_sweep", "phr", false, 0.02},
        {"deadline_sweep", "p99_ttft_s", true, 0.10},
        {"burstiness", "phr", false, 0.02}}},
      {"chunked_prefill",
       "BENCH_chunked_prefill.json",
       {{"chunk_mix_sweep", "interactive_p99_ttft_s", true, 0.10},
        {"chunk_mix_sweep", "interactive_p99_itl_s", true, 0.10},
        {"chunk_mix_sweep", "goodput_rps", true, 0.10}}},
      {"serving_router",
       "BENCH_serving_router.json",
       {{"replicas_policy", "agg_phr", false, 0.02},
        {"replicas_policy", "p50_ttft_s", true, 0.10},
        {"replicas_policy", "p99_ttft_s", true, 0.10},
        {"replicas_policy", "goodput_rps", true, 0.10},
        {"replicas_policy", "load_imbalance", true, 0.10},
        {"replicas_policy", "phc", true, 0.05},
        {"policy_rate", "agg_phr", false, 0.02},
        {"policy_rate", "p99_ttft_s", true, 0.10},
        {"policy_rate", "goodput_rps", true, 0.10}}},
      {"priority_preemption",
       "BENCH_priority_preemption.json",
       {{"overload", "agg_phr", false, 0.02},
        {"overload", "interactive_p99_ttft_s", true, 0.10},
        {"overload", "standard_p99_ttft_s", true, 0.10},
        {"overload", "batch_p99_e2e_s", true, 0.10},
        {"overload", "interactive_goodput_rps", true, 0.10},
        {"overload", "batch_completed", true, 0.10},
        {"overload", "preemptions", true, 0.10},
        {"overload", "recompute_tokens", true, 0.10},
        {"aging_sweep", "interactive_p99_ttft_s", true, 0.10},
        {"aging_sweep", "batch_p99_e2e_s", true, 0.10},
        {"aging_sweep", "batch_completed", true, 0.10},
        {"aging_sweep", "preemptions", true, 0.10}}},
      {"concurrent_queries",
       "BENCH_concurrent_queries.json",
       {{"queries_router", "agg_phr", false, 0.02},
        {"queries_router", "effective_hit_fraction", false, 0.02},
        {"queries_router", "dedup_hits", false, 0.0},
        {"queries_router", "makespan_s", true, 0.10},
        {"queries_router", "speedup_vs_serial", true, 0.10},
        {"queries_router", "p99_ttft_s", true, 0.10},
        {"queries_router", "load_imbalance", true, 0.10}}},
      // Sessions / agents / length-aware scheduling. Conservation counts
      // (requests, turn spawns, audit verdict, completions) are exact;
      // PHR and tails use the standard bands; predictor means are exact
      // up to the absolute band (pure EWMA replay, no simulation noise).
      {"scenarios",
       "BENCH_scenarios.json",
       {{"session_turns", "agg_phr", false, 0.02},
        {"session_turns", "requests", false, 0.0},
        {"session_turns", "windows", true, 0.10},
        {"session_turns", "p99_ttft_s", true, 0.10},
        {"agentic", "requests", false, 0.0},
        {"agentic", "turn_spawns", false, 0.0},
        {"agentic", "audit_ok", false, 0.0},
        {"agentic", "agg_phr", false, 0.02},
        {"spjf_overload", "completions", false, 0.0},
        {"spjf_overload", "short_p99_ttft_s", true, 0.10},
        {"spjf_overload", "agg_phr", false, 0.02},
        {"penalty_ablation", "mean_predicted_tokens", false, 0.01}}},
      // Hot-path microbench: the deterministic outputs (hash fingerprints,
      // cache hit/insert/evict counts, the zero-steady-state-allocation
      // audit) must match the snapshot exactly. us/op keys are compared
      // only against a same-host release golden, and in a 2x band —
      // single-core hosts jitter +/-40% run to run, so the band is an
      // anti-catastrophe tripwire (a lost SIMD dispatch is 4-5x, a lost
      // child index 10x+), not a precision perf gate. The same-run ratio
      // gates (expect_micro_ratios_hold) cover those catastrophes on
      // every host.
      {"micro",
       "BENCH_micro.json",
       {{"token_ops", "hash_check", false, 0.0},
        {"token_ops", "lcp_us", true, 1.0, true},
        {"token_ops", "hash_us", true, 1.0, true},
        {"radix_fanout", "check", false, 0.0},
        {"radix_fanout", "hit_us", true, 1.0, true},
        {"radix_stream", "hit_tokens", false, 0.0},
        {"radix_stream", "inserted_blocks", false, 0.0},
        {"radix_stream", "us_per_request", true, 1.0, true},
        {"evict_batch", "evicted", false, 0.0},
        {"evict_batch", "us_per_block", true, 1.0, true},
        {"alloc_steadystate", "steady_allocs", false, 0.0},
        {"alloc_steadystate", "node_slots_delta", false, 0.0}}},
      // Tier hierarchy + elasticity. PHR and tails use the standard
      // bands; the headline tiered-vs-flat ordering is re-asserted by the
      // bench itself (it exits nonzero on violation), so the golden pins
      // the magnitudes. Audit verdicts are exact — a band on a boolean
      // hides a broken invariant.
      {"tiered_cache",
       "BENCH_tiered_cache.json",
       {{"tiers_vs_flat", "agg_phr", false, 0.02},
        {"tiers_vs_flat", "interactive_p99_ttft_s", true, 0.10},
        {"tiers_vs_flat", "goodput_rps", true, 0.10},
        {"tiers_vs_flat", "promote_seconds", true, 0.10},
        {"split_sweep", "agg_phr", false, 0.02},
        {"split_sweep", "interactive_p99_ttft_s", true, 0.10},
        {"elasticity", "agg_phr", false, 0.02},
        {"elasticity", "replica_spawns", false, 0.0},
        {"elasticity", "prefix_migrations", false, 0.0},
        {"elasticity", "audit_ok", false, 0.0}}},
  };
  return specs;
}

bool file_exists(const std::string& path) {
  std::ifstream f(path);
  return f.good();
}

/// True when both reports say "release build, no sanitizer" and carry the
/// same host fingerprint (CPU model, hardware threads, dispatched ISA) —
/// the only pairs whose absolute wall-clock numbers are comparable. A
/// golden without a fingerprint counts as another host.
bool timing_comparable(const util::JsonValue& golden,
                       const util::JsonValue& fresh) {
  const util::JsonValue* gp = golden.find("provenance");
  const util::JsonValue* fp = fresh.find("provenance");
  if (gp == nullptr || fp == nullptr) return false;
  for (const util::JsonValue* prov : {gp, fp}) {
    const util::JsonValue* build = prov->find("build_type");
    const util::JsonValue* san = prov->find("sanitizer");
    if (build == nullptr || san == nullptr ||
        build->as_string() != "release" || san->as_string() != "none")
      return false;
  }
  for (const char* key : {"cpu_model", "hardware_threads", "isa"}) {
    const util::JsonValue* g = gp->find(key);
    const util::JsonValue* f = fp->find(key);
    if (g == nullptr || f == nullptr || g->type() != f->type()) return false;
    if (g->is_number() ? g->as_number() != f->as_number()
                       : g->as_string() != f->as_string())
      return false;
  }
  return true;
}

double number_at(const util::JsonValue& sections, const char* section,
                 std::size_t i, const char* key) {
  const util::JsonValue* v = sections.find(section)->as_array()[i].find(key);
  if (v == nullptr) ADD_FAILURE() << section << "[" << i << "]." << key;
  return v != nullptr ? v->as_number() : 0.0;
}

/// bench_micro's same-run ratios. Both sides of each ratio come from one
/// process on one host, so unlike absolute us/op they are comparable
/// across hosts. Each is held to the golden's own ratio within the same
/// 2x catastrophe band, one-sided: a faster SIMD path or a flatter child
/// lookup never fails.
void expect_micro_ratios_hold(const util::JsonValue& gsec,
                              const util::JsonValue& fsec) {
  // SIMD speedup over the scalar reference where the vector loop
  // dominates: the median over the len >= 64 records, so one noisy
  // nanosecond-scale timing cannot decide it. Gated whenever this host can
  // dispatch the ISA the golden was recorded with; a forced-scalar rerun
  // (LLMQ_SIMD=scalar) measures ~1x and fails.
  const std::string& isa =
      gsec.find("token_ops")->as_array()[0].find("isa")->as_string();
  if (isa == util::simd::name(util::simd::detail::detect())) {
    const auto median_speedup = [](const util::JsonValue& sec) {
      std::vector<double> v;
      for (std::size_t i = 0; i < sec.find("token_ops")->as_array().size();
           ++i)
        if (number_at(sec, "token_ops", i, "len") >= 64)
          v.push_back(number_at(sec, "token_ops", i, "lcp_speedup"));
      std::sort(v.begin(), v.end());
      return v.empty() ? 0.0 : v[v.size() / 2];
    };
    const double g = median_speedup(gsec);
    EXPECT_GE(median_speedup(fsec), g / 2.0)
        << "token_ops lcp_speedup (median, len >= 64): the dispatched "
        << isa << " kernel lost its edge over scalar (golden " << g << "x)";
  }
  // Child-lookup flatness: hit cost at the largest fan-out over the
  // smallest. The open-addressed child index keeps it near flat; a linear
  // child scan grows with the fan-out.
  const auto flatness = [](const util::JsonValue& sec) {
    const std::size_t last = sec.find("radix_fanout")->as_array().size() - 1;
    return number_at(sec, "radix_fanout", last, "hit_us") /
           number_at(sec, "radix_fanout", 0, "hit_us");
  };
  const double g = flatness(gsec);
  EXPECT_LE(flatness(fsec), 2.0 * g)
      << "radix_fanout hit_us grows with fan-out: child index lost? "
      << "(golden largest/smallest fan-out ratio " << g << ")";
}

std::optional<util::JsonValue> parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return std::nullopt;
  std::stringstream buf;
  buf << in.rdbuf();
  return util::json_parse(buf.str());
}

class BenchGoldenDiff : public ::testing::TestWithParam<GoldenSpec> {};

TEST_P(BenchGoldenDiff, HeadlineNumbersMatchSnapshotWithinTolerance) {
  const GoldenSpec& spec = GetParam();
  const std::string driver = std::string(LLMQ_BIN_DIR) + "/llmq_bench";
  if (!file_exists(driver))
    GTEST_SKIP() << driver << " not built (benches disabled?)";

  const std::string golden_path =
      std::string(LLMQ_REPO_ROOT) + "/" + spec.golden;
  const auto golden = parse_file(golden_path);
  ASSERT_TRUE(golden.has_value())
      << spec.golden << " missing or unparseable — regenerate with "
      << "`llmq_bench " << spec.name << " --scale <s> --seed <n> --json "
      << spec.golden << "`";

  // Re-run at the snapshot's own scale/seed (read from its envelope, so
  // regenerating a golden at a new scale needs no test edit).
  const util::JsonValue* scale = golden->find("scale");
  const util::JsonValue* seed = golden->find("seed");
  ASSERT_NE(scale, nullptr);
  ASSERT_NE(seed, nullptr);
  char scale_buf[32];
  std::snprintf(scale_buf, sizeof scale_buf, "%.17g", scale->as_number());
  const std::string out_path =
      ::testing::TempDir() + "llmq_golden_rerun_" + spec.name + ".json";
  const std::string cmd =
      driver + " " + spec.name + " --scale " + scale_buf + " --seed " +
      std::to_string(static_cast<long long>(seed->as_number())) + " --json " +
      out_path + " > /dev/null 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
  const auto fresh = parse_file(out_path);
  ASSERT_TRUE(fresh.has_value()) << "rerun emitted unparseable JSON";

  const util::JsonValue* gsec = golden->find("sections");
  const util::JsonValue* fsec = fresh->find("sections");
  ASSERT_NE(gsec, nullptr);
  ASSERT_NE(fsec, nullptr);
  const bool compare_wallclock = timing_comparable(*golden, *fresh);
  for (const DiffKey& dk : spec.keys) {
    if (dk.wallclock && !compare_wallclock) continue;
    const util::JsonValue* grecs = gsec->find(dk.section);
    const util::JsonValue* frecs = fsec->find(dk.section);
    ASSERT_NE(grecs, nullptr) << "golden lacks section " << dk.section;
    ASSERT_NE(frecs, nullptr) << "rerun lacks section " << dk.section;
    ASSERT_EQ(grecs->as_array().size(), frecs->as_array().size())
        << dk.section << " record count changed — regenerate the golden";
    for (std::size_t i = 0; i < grecs->as_array().size(); ++i) {
      const util::JsonValue* gv = grecs->as_array()[i].find(dk.key);
      const util::JsonValue* fv = frecs->as_array()[i].find(dk.key);
      ASSERT_NE(gv, nullptr) << dk.section << "[" << i << "]." << dk.key;
      ASSERT_NE(fv, nullptr) << dk.section << "[" << i << "]." << dk.key;
      const double g = gv->as_number();
      const double f = fv->as_number();
      const double allowed =
          dk.relative ? std::max(dk.tol * std::fabs(g), 1e-3) : dk.tol;
      EXPECT_NEAR(f, g, allowed)
          << dk.section << "[" << i << "]." << dk.key
          << " drifted from the committed snapshot (" << spec.golden
          << "); if intentional, regenerate it";
    }
  }
  if (std::string(spec.name) == "micro")
    expect_micro_ratios_hold(*gsec, *fsec);
  std::remove(out_path.c_str());
}

std::string spec_name(const ::testing::TestParamInfo<GoldenSpec>& info) {
  return std::string("bench_") + info.param.name;
}

INSTANTIATE_TEST_SUITE_P(CommittedGoldens, BenchGoldenDiff,
                         ::testing::ValuesIn(golden_specs()), spec_name);

}  // namespace
}  // namespace llmq
