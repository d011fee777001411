// Golden JSON schema tests for the --json-capable benches.
//
// Each bench's --json report feeds downstream perf-trajectory tooling;
// a silently renamed key or retyped value breaks that tooling without
// failing any test. This harness runs every JSON bench at trivial scale
// through the llmq_bench driver and validates the report's shape with
// util::json_parse: the standard envelope (bench / scale / seed /
// sections) plus, per section, the required record keys and their types.
// Extra keys are allowed — reports may grow — but required keys may not
// vanish or change type.
//
// The driver's directory is compiled in (LLMQ_BIN_DIR, set by
// CMakeLists.txt to the build root); when llmq_bench is absent (e.g. a
// -DLLMQ_BUILD_BENCHES=OFF build) the tests skip rather than fail.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.hpp"

#ifndef LLMQ_BIN_DIR
#define LLMQ_BIN_DIR "."
#endif

namespace llmq {
namespace {

struct KeySpec {
  const char* key;
  util::JsonValue::Type type;
};

struct SectionSpec {
  const char* name;
  std::vector<KeySpec> keys;
};

struct BenchSpec {
  const char* name;  // registry name: `llmq_bench <name>`
  std::vector<SectionSpec> sections;
};

constexpr auto kNum = util::JsonValue::Type::Number;
constexpr auto kStr = util::JsonValue::Type::String;

const std::vector<BenchSpec>& bench_specs() {
  static const std::vector<BenchSpec> specs = {
      {"table2_phr",
       {{"phr",
         {{"dataset", kStr},
          {"rows", kNum},
          {"original_phr", kNum},
          {"ggr_phr", kNum},
          {"paper_original_phr", kNum},
          {"paper_ggr_phr", kNum}}}}},
      {"serving_online",
       {{"rate_policy",
         {{"policy", kStr},
          {"rate", kNum},
          {"phr", kNum},
          {"phc", kNum},
          {"windows", kNum},
          {"p50_ttft_s", kNum},
          {"p99_ttft_s", kNum},
          {"mean_queue_delay_s", kNum},
          {"goodput_rps", kNum}}},
        {"deadline_sweep",
         {{"policy", kStr},
          {"deadline_s", kNum},
          {"phr", kNum},
          {"p50_ttft_s", kNum},
          {"p99_ttft_s", kNum},
          {"mean_window_rows", kNum}}},
        {"burstiness",
         {{"process", kStr},
          {"phr", kNum},
          {"p50_ttft_s", kNum},
          {"p99_ttft_s", kNum},
          {"peak_batch", kNum}}},
        {"trace_overhead",
         {{"wall_s_no_trace", kNum},
          {"wall_s_traced", kNum},
          {"overhead_frac", kNum}}}}},
      {"serving_router",
       {{"replicas_policy",
         {{"replicas", kNum},
          {"router", kStr},
          {"rate", kNum},
          {"agg_phr", kNum},
          {"p50_ttft_s", kNum},
          {"p99_ttft_s", kNum},
          {"load_imbalance", kNum},
          {"goodput_rps", kNum},
          {"phc", kNum}}},
        {"policy_rate",
         {{"replicas", kNum},
          {"router", kStr},
          {"rate", kNum},
          {"agg_phr", kNum},
          {"load_imbalance", kNum},
          {"goodput_rps", kNum}}}}},
      {"ablation_serving",
       {{"kv_pool_sweep",
         {{"pool_mult", kNum},
          {"original_phr", kNum},
          {"ggr_phr", kNum},
          {"original_s", kNum},
          {"ggr_s", kNum}}},
        {"batch_size_sweep",
         {{"max_batch", kNum}, {"original_s", kNum}, {"ggr_s", kNum}}},
        {"block_size_sweep",
         {{"block_tokens", kNum}, {"ggr_phr", kNum}, {"ggr_s", kNum}}}}},
      {"priority_preemption",
       {{"overload",
         {{"rate_mult", kNum},
          {"rate_rps", kNum},
          {"preemption", kStr},
          {"interactive_p99_ttft_s", kNum},
          {"standard_p99_ttft_s", kNum},
          {"batch_p99_e2e_s", kNum},
          {"interactive_goodput_rps", kNum},
          {"batch_completed", kNum},
          {"preemptions", kNum},
          {"recompute_tokens", kNum},
          {"agg_phr", kNum}}},
        {"aging_sweep",
         {{"aging_s", kNum},
          {"interactive_p99_ttft_s", kNum},
          {"batch_p99_e2e_s", kNum},
          {"batch_completed", kNum},
          {"preemptions", kNum}}}}},
      {"chunked_prefill",
       {{"chunk_mix_sweep",
         {{"mix", kStr},
          {"chunk_tokens", kNum},
          {"interactive_p99_ttft_s", kNum},
          {"interactive_p99_itl_s", kNum},
          {"max_decode_stall_s", kNum},
          {"batch_p99_e2e_s", kNum},
          {"goodput_rps", kNum},
          {"prompt_tokens", kNum},
          {"chunked_prefill_tokens", kNum},
          {"tokens_conserved", kStr}}},
        {"deep_backlog",
         {{"depth", kNum}, {"us_per_request", kNum}}}}},
      {"micro",
       {{"token_ops",
         {{"len", kNum},
          {"isa", kStr},
          {"lcp_us", kNum},
          {"lcp_scalar_us", kNum},
          {"lcp_speedup", kNum},
          {"hash_us", kNum},
          {"hash_scalar_us", kNum},
          {"hash_speedup", kNum},
          {"equal_us", kNum},
          {"equal_scalar_us", kNum},
          {"hash_check", kNum}}},
        {"radix_fanout",
         {{"fanout", kNum}, {"hit_us", kNum}, {"miss_us", kNum},
          {"check", kNum}}},
        {"radix_stream",
         {{"requests", kNum},
          {"us_per_request", kNum},
          {"hit_tokens", kNum},
          {"inserted_blocks", kNum}}},
        {"evict_batch",
         {{"nodes", kNum}, {"evicted", kNum}, {"us_per_block", kNum}}},
        {"alloc_steadystate",
         {{"steady_passes", kNum},
          {"warmup_allocs", kNum},
          {"steady_allocs", kNum},
          {"node_slots_delta", kNum}}}}},
      {"concurrent_queries",
       {{"queries_router",
         {{"queries", kNum},
          {"router", kStr},
          {"replicas", kNum},
          {"serial_phr", kNum},
          {"agg_phr", kNum},
          {"effective_hit_fraction", kNum},
          {"dedup_hits", kNum},
          {"dedup_saved_prompt_tokens", kNum},
          {"makespan_s", kNum},
          {"speedup_vs_serial", kNum},
          {"p50_ttft_s", kNum},
          {"p99_ttft_s", kNum},
          {"load_imbalance", kNum}}}}},
      {"scenarios",
       {{"session_turns",
         {{"turns", kNum},
          {"requests", kNum},
          {"agg_phr", kNum},
          {"p99_ttft_s", kNum},
          {"p50_e2e_s", kNum},
          {"windows", kNum}}},
        {"agentic",
         {{"replicas", kNum},
          {"roots", kNum},
          {"turns", kNum},
          {"requests", kNum},
          {"turn_spawns", kNum},
          {"audit_ok", kNum},
          {"agg_phr", kNum}}},
        {"spjf_overload",
         {{"arm", kStr},
          {"completions", kNum},
          {"short_p99_ttft_s", kNum},
          {"long_p99_ttft_s", kNum},
          {"p99_ttft_s", kNum},
          {"agg_phr", kNum}}},
        {"penalty_ablation",
         {{"penalty", kNum}, {"mean_predicted_tokens", kNum}}}}},
      {"tiered_cache",
       {{"tiers_vs_flat",
         {{"replicas", kNum},
          {"arm", kStr},
          {"agg_phr", kNum},
          {"interactive_p99_ttft_s", kNum},
          {"p99_ttft_s", kNum},
          {"goodput_rps", kNum},
          {"demoted_blocks", kNum},
          {"promoted_blocks", kNum},
          {"promote_seconds", kNum},
          {"load_imbalance", kNum}}},
        {"split_sweep",
         {{"host_capacity_blocks", kNum},
          {"agg_phr", kNum},
          {"interactive_p99_ttft_s", kNum},
          {"demoted_blocks", kNum},
          {"evicted_blocks", kNum},
          {"promote_seconds", kNum}}},
        {"elasticity",
         {{"spawn", kStr},
          {"migrate_max_blocks", kNum},
          {"agg_phr", kNum},
          {"interactive_p99_ttft_s", kNum},
          {"p99_ttft_s", kNum},
          {"replica_spawns", kNum},
          {"replica_drains", kNum},
          {"prefix_migrations", kNum},
          {"migrated_blocks", kNum},
          {"audit_ok", kNum}}}}},
  };
  return specs;
}

const std::string kDriver = std::string(LLMQ_BIN_DIR) + "/llmq_bench";

bool file_exists(const std::string& path) {
  std::ifstream f(path);
  return f.good();
}

/// Exit status of `llmq_bench <args>`, output discarded; -1 if it did not
/// exit normally.
int run_driver(const std::string& args) {
  const std::string cmd = kDriver + " " + args + " > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Run `llmq_bench <name>` at trivial scale with --json and parse the
/// report it wrote.
std::optional<util::JsonValue> run_and_parse(const std::string& name) {
  const std::string out_path =
      ::testing::TempDir() + "llmq_bench_" + name + ".json";
  const std::string args = name + " --scale 0.01 --seed 7 --json " + out_path;
  EXPECT_EQ(run_driver(args), 0) << "llmq_bench " << args;
  std::ifstream in(out_path);
  if (!in.good()) return std::nullopt;
  std::stringstream buf;
  buf << in.rdbuf();
  std::remove(out_path.c_str());
  return util::json_parse(buf.str());
}

/// The envelope every report carries, whatever its sections: the bench
/// field echoes "bench_<name>", scale/seed are numeric, and the v2
/// schema version and toolchain/host provenance are present (a golden
/// diff must be able to refuse cross-toolchain and cross-host wall-clock
/// comparisons).
void expect_envelope(const util::JsonValue& doc, const std::string& name) {
  ASSERT_TRUE(doc.is_object());
  const util::JsonValue* bench = doc.find("bench");
  ASSERT_NE(bench, nullptr);
  EXPECT_EQ(bench->as_string(), "bench_" + name);
  ASSERT_NE(doc.find("scale"), nullptr);
  EXPECT_TRUE(doc.find("scale")->is_number());
  ASSERT_NE(doc.find("seed"), nullptr);
  EXPECT_TRUE(doc.find("seed")->is_number());
  ASSERT_NE(doc.find("schema_version"), nullptr);
  EXPECT_TRUE(doc.find("schema_version")->is_number());
  const util::JsonValue* prov = doc.find("provenance");
  ASSERT_NE(prov, nullptr);
  ASSERT_TRUE(prov->is_object());
  for (const char* key : {"build_type", "sanitizer", "compiler",
                          "compiler_version", "cpu_model", "isa"}) {
    const util::JsonValue* v = prov->find(key);
    ASSERT_NE(v, nullptr) << "provenance lacks " << key;
    EXPECT_TRUE(v->is_string()) << "provenance." << key;
    EXPECT_FALSE(v->as_string().empty()) << "provenance." << key;
  }
  ASSERT_NE(prov->find("hardware_threads"), nullptr);
  EXPECT_TRUE(prov->find("hardware_threads")->is_number());
  const util::JsonValue* sections = doc.find("sections");
  ASSERT_NE(sections, nullptr);
  ASSERT_TRUE(sections->is_object());
}

class BenchJsonSchema : public ::testing::TestWithParam<BenchSpec> {};

TEST_P(BenchJsonSchema, TrivialRunEmitsRequiredKeysAndTypes) {
  const BenchSpec& spec = GetParam();
  if (!file_exists(kDriver))
    GTEST_SKIP() << kDriver << " not built (benches disabled?)";

  const auto doc = run_and_parse(spec.name);
  ASSERT_TRUE(doc.has_value()) << "bench wrote no or unparseable JSON";
  expect_envelope(*doc, spec.name);
  if (HasFatalFailure()) return;

  const util::JsonValue* sections = doc->find("sections");
  for (const SectionSpec& sec : spec.sections) {
    const util::JsonValue* records = sections->find(sec.name);
    ASSERT_NE(records, nullptr) << "missing section " << sec.name;
    ASSERT_TRUE(records->is_array()) << sec.name;
    ASSERT_FALSE(records->as_array().empty()) << sec.name << " is empty";
    std::size_t i = 0;
    for (const util::JsonValue& rec : records->as_array()) {
      ASSERT_TRUE(rec.is_object()) << sec.name << "[" << i << "]";
      for (const KeySpec& k : sec.keys) {
        const util::JsonValue* v = rec.find(k.key);
        ASSERT_NE(v, nullptr)
            << sec.name << "[" << i << "] lacks key " << k.key;
        EXPECT_EQ(static_cast<int>(v->type()), static_cast<int>(k.type))
            << sec.name << "[" << i << "]." << k.key << " changed type";
      }
      ++i;
    }
  }
}

std::string spec_name(const ::testing::TestParamInfo<BenchSpec>& info) {
  return std::string("bench_") + info.param.name;
}

INSTANTIATE_TEST_SUITE_P(AllJsonBenches, BenchJsonSchema,
                         ::testing::ValuesIn(bench_specs()), spec_name);

// A bench that records no sections still honours --json: the envelope is
// written with an empty sections object, not silently dropped.
TEST(BenchJsonEnvelope, TableOnlyBenchWritesEmptySections) {
  if (!file_exists(kDriver))
    GTEST_SKIP() << kDriver << " not built (benches disabled?)";
  const auto doc = run_and_parse("fig5_llama70b");
  ASSERT_TRUE(doc.has_value()) << "bench wrote no or unparseable JSON";
  expect_envelope(*doc, "fig5_llama70b");
  if (HasFatalFailure()) return;
  EXPECT_TRUE(doc->find("sections")->as_object().empty());
}

// The driver parses the flags once for every bench, so one bench covers
// the flag contract: a missing or unknown bench name, a typo'd flag, a
// malformed value, or --trace on a bench that does not trace must stop
// the run (exit 2) rather than silently run some other configuration.
TEST(BenchFlags, MalformedFlagsExitWithUsageError) {
  if (!file_exists(kDriver))
    GTEST_SKIP() << kDriver << " not built (benches disabled?)";
  // Each line would run a small, valid config if its bad argument were
  // ignored, so a lenient parser fails fast here instead of hanging.
  for (const char* args :
       {"table2_phr --scale 0.01 --bogus", "table2_phr --scale abc",
        "table2_phr --scale 0.01 --scale", "table2_phr --scale 0",
        "table2_phr --scale -0.5", "table2_phr --scale 0.01x",
        "table2_phr --scale nan", "table2_phr --scale 0.01 --seed 12x",
        "table2_phr --scale 0.01 --seed -3", "table2_phr --scale 0.01 --json",
        "--scale 0.01", "no_such_bench --scale 0.01",
        "table2_phr --scale 0.01 --trace /dev/null"})
    EXPECT_EQ(run_driver(args), 2) << "llmq_bench " << args;
}

}  // namespace
}  // namespace llmq
