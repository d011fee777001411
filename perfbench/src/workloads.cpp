// The four benchmark workloads. Each generates its inputs from the seed,
// drives llmq's public entry points, and checks the outputs. Why each one
// exists, and which layer it loads, is in README.md.

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <unordered_set>

#include "bench.hpp"
#include "core/ggr.hpp"
#include "data/benchmark_suite.hpp"
#include "data/generators.hpp"
#include "llm/engine_session.hpp"
#include "llm/task_model.hpp"
#include "query/executor.hpp"
#include "query/llm_operator.hpp"
#include "query/prompt.hpp"
#include "serve/online.hpp"
#include "serve/query_client.hpp"
#include "serve/workload.hpp"
#include "util/stats.hpp"

namespace perfbench {

using namespace llmq;
using Scope = Tracer::Scope;

namespace {

/// TTFT limit for goodput and for the offered-rate ladder.
constexpr double kTtftLimitS = 2.0;

std::string fmt(const char* f, double a, double b = 0.0, double c = 0.0) {
  char buf[160];
  std::snprintf(buf, sizeof buf, f, a, b, c);
  return buf;
}

data::Dataset generate(Tracer* tr, const std::string& key, std::size_t rows,
                       std::uint64_t seed) {
  Scope s(tr, "data.generate_dataset", Layer::Data, rows);
  data::GenOptions g;
  g.n_rows = rows;
  g.seed = seed;
  return data::generate_dataset(key, g);
}

double kv_fraction(const std::string& key, std::size_t rows) {
  return static_cast<double>(rows) /
         static_cast<double>(data::paper_rows(key));
}

/// Engine-level exactly-once ledger: every prompt token is either served
/// from the cache or computed, once.
void check_tokens(const llm::EngineMetrics& m, std::uint64_t requests,
                  Outcome& o, const char* what) {
  if (m.cached_prompt_tokens + m.computed_prompt_tokens != m.prompt_tokens)
    o.fail(requests, std::string(what) + ": cached + computed != prompt");
}

/// Every id in `ids` exactly once, and `expected` of them.
template <typename Ids>
void check_once(const Ids& ids, std::size_t expected, Outcome& o,
                const char* what) {
  std::unordered_set<std::uint64_t> seen;
  std::size_t dup = 0;
  for (std::uint64_t id : ids)
    if (!seen.insert(id).second) ++dup;
  if (dup || ids.size() != expected)
    o.fail(std::max<std::size_t>(dup, expected > seen.size()
                                          ? expected - seen.size()
                                          : 1),
           std::string(what) + ": " + std::to_string(ids.size()) +
               " completions for " + std::to_string(expected) +
               " requests (" + std::to_string(dup) + " duplicated)");
}

void add_engine_counters(const llm::EngineMetrics& m, Outcome& o) {
  const auto d = [](auto v) { return static_cast<double>(v); };
  o.counters.push_back({"query.prompt_tokens", d(m.prompt_tokens), "count"});
  o.counters.push_back({"llm.decode_steps", d(m.decode_steps), "count"});
  o.counters.push_back({"llm.mean_batch", m.mean_batch_size(), "requests"});
  o.counters.push_back({"llm.prefill_chunks", d(m.prefill_chunks), "count"});
  o.counters.push_back({"llm.preemptions", d(m.preemptions), "count"});
  o.counters.push_back(
      {"llm.recompute_tokens", d(m.recompute_prefill_tokens), "count"});
  o.counters.push_back({"cache.lookups", d(m.cache.lookups), "count"});
  o.counters.push_back(
      {"cache.lookup_tokens", d(m.cache.lookup_tokens), "count"});
  o.counters.push_back({"cache.hit_frac", m.cache.hit_rate(), "fraction"});
  o.counters.push_back(
      {"cache.evicted_blocks", d(m.cache.evicted_blocks), "count"});
  o.counters.push_back(
      {"cache.demoted_blocks", d(m.cache.demoted_blocks), "count"});
  o.counters.push_back(
      {"cache.promoted_blocks", d(m.cache.promoted_blocks), "count"});
}

/// Sum the counters add_engine_counters reads over several engine runs.
void accumulate(llm::EngineMetrics& into, const llm::EngineMetrics& m) {
  into.prompt_tokens += m.prompt_tokens;
  into.decode_steps += m.decode_steps;
  into.sum_batch_size += m.sum_batch_size;
  into.prefill_chunks += m.prefill_chunks;
  into.preemptions += m.preemptions;
  into.recompute_prefill_tokens += m.recompute_prefill_tokens;
  into.cache += m.cache;
}

void add_latency_sim(const serve::OnlineRunResult& r, Outcome& o) {
  o.sim.push_back({"phr", r.engine.prompt_cache_hit_rate(), "fraction"});
  o.sim.push_back({"sim_jct_s", r.latency.makespan, "sim_s"});
  o.sim.push_back({"sim_p50_ttft_s", r.latency.p50_ttft, "sim_s"});
  o.sim.push_back({"sim_p99_ttft_s", r.latency.p99_ttft, "sim_s"});
  o.sim.push_back({"sim_p99_itl_s", r.latency.p99_itl, "sim_s"});
  o.sim.push_back({"sim_goodput_rps", r.latency.goodput_rps, "1/sim_s"});
}

/// Serving-layer counters of `r`; engine counters and windows are taken
/// from `engine` / `windows` when a workload sums them over several runs.
void add_serving_counters(const serve::OnlineRunResult& r, Outcome& o,
                          const llm::EngineMetrics* engine = nullptr,
                          std::size_t windows = 0) {
  add_engine_counters(engine ? *engine : r.engine, o);
  o.counters.push_back({"serve.windows",
                        static_cast<double>(engine ? windows : r.windows),
                        "count"});
  o.counters.push_back({"serve.load_imbalance", r.load_imbalance, "ratio"});
  o.counters.push_back(
      {"serve.sim_p99_queue_s", r.latency.p99_queue_delay, "sim_s"});
  o.counters.push_back({"serve.dedup_hits",
                        static_cast<double>(r.dedup.hits), "count"});
}

std::vector<std::uint64_t> served_ids(const serve::OnlineRunResult& r) {
  std::vector<std::uint64_t> ids;
  ids.reserve(r.requests.size());
  for (const serve::ServedRequest& sr : r.requests) ids.push_back(sr.id);
  return ids;
}

/// Re-materialise the prompts a run_online call emitted, outside the
/// driver, timing rendering and tokenising separately. The drivers do the
/// same per-tenant PromptEncoder work between window planning and routing,
/// where the event stamps cannot separate it from routing.
void replay_prompts(Tracer* tr, const table::Table& t,
                    const std::vector<serve::Arrival>& arrivals,
                    const serve::OnlineRunResult& r,
                    const query::PromptTemplate& base) {
  if (!tr) return;
  Scope replay(tr, "bench.replay_prompts", Layer::Bench);
  const auto& tok = tokenizer::global_tokenizer();
  std::map<std::uint32_t, tokenizer::TokenSeq> prefixes;
  for (std::size_t pos = 0; pos < r.emitted.num_rows(); ++pos) {
    const std::size_t idx = r.emitted.row_at(pos);
    if (idx >= arrivals.size()) continue;  // session follow-up turn
    const serve::Arrival& a = arrivals[idx];
    auto it = prefixes.find(a.tenant);
    if (it == prefixes.end()) {
      query::PromptTemplate tmpl = base;
      tmpl.system_prompt += " [tenant " + std::to_string(a.tenant) + "]";
      std::string text;
      {
        Scope s(tr, "query.render", Layer::Query, a.id);
        text = query::render_instruction_prefix(tmpl);
      }
      Scope s(tr, "tokenizer.encode", Layer::Tokenizer, a.id);
      it = prefixes.emplace(a.tenant, tok.encode(text)).first;
    }
    std::string json;
    {
      Scope s(tr, "query.render", Layer::Query, a.id);
      json = query::render_row_json(t, a.row, r.emitted.fields_at(pos));
    }
    Scope s(tr, "tokenizer.encode", Layer::Tokenizer, a.id);
    tokenizer::TokenSeq prompt = it->second;
    tok.encode_append(json, prompt);
  }
}

// ---------------------------------------------------------------------------
// paper_batch: the paper's 16 queries, each through query::run_query with
// GGR on a private engine.

struct PaperAnchor {
  const char* dataset;
  double table2_ggr_phr;   // paper Table 2, GGR PHR (filter + RAG rows)
  double table5_solver_s;  // paper Table 5, full-size tables
};

constexpr PaperAnchor kAnchors[] = {
    {"movies", 0.86, 3.3}, {"products", 0.83, 4.5}, {"bird", 0.85, 1.2},
    {"pdmx", 0.57, 12.6},  {"beer", 0.80, 8.0},     {"fever", 0.67, 5.6},
    {"squad", 0.70, 4.5}};

class PaperBatch final : public Workload {
 public:
  static constexpr double kScale = 0.1;

  const char* name() const override { return "paper_batch"; }

  void setup(std::uint64_t seed, Tracer* tr) override {
    datasets_.clear();
    for (const std::string& key : data::dataset_keys()) {
      const std::size_t rows = std::max<std::size_t>(
          50, static_cast<std::size_t>(
                  static_cast<double>(data::paper_rows(key)) * kScale));
      datasets_.emplace(key, generate(tr, key, rows, seed));
    }
  }

  Outcome run() override {
    Outcome o;
    std::uint64_t hit = 0, prompt = 0;
    double jct = 0.0;
    for (const data::QuerySpec& spec : data::benchmark_queries()) {
      const data::Dataset& d = datasets_.at(spec.dataset);
      const query::QueryRunResult r =
          query::run_query(d, spec, config_for(spec.dataset));
      std::uint64_t requests = 0;
      for (const query::StageMetrics& s : r.stages) requests += s.rows;
      o.invocations += requests;
      o.attempted += requests;
      for (const query::StageMetrics& s : r.stages) {
        hit += s.engine.cached_prompt_tokens;
        prompt += s.engine.prompt_tokens;
        check_tokens(s.engine, s.rows, o, spec.id.c_str());
      }
      if (r.stages.empty() || r.stages[0].rows != d.table.num_rows() ||
          r.answers.size() != d.table.num_rows())
        o.fail(requests, spec.id + ": stage 1 did not cover every row");
      if (r.stages.size() == 2 && r.stages[1].rows != r.rows_selected)
        o.fail(requests, spec.id + ": stage 2 rows != stage 1 selection");
      jct += r.total_seconds;
      o.notes.push_back(anchor_line(spec, d, r));
    }
    o.sim.push_back({"phr", ratio(hit, prompt), "fraction"});
    o.sim.push_back({"sim_jct_s", jct, "sim_s"});
    return o;
  }

  /// run_query decomposed into its public building blocks (the same
  /// calls run_stage / prepare_stage / build_requests make), so each can
  /// be timed on its own; the final metrics must equal run_query's.
  Outcome layered(Tracer* tr) override {
    Scope root(tr, "bench.iteration", Layer::Bench);
    Outcome o;
    std::uint64_t hit = 0, prompt = 0;
    double jct = 0.0;
    std::vector<double> ttft, itl;
    std::size_t ggr_nodes = 0, ggr_groups = 0;
    llm::EngineMetrics all;
    std::uint64_t query_no = 0;
    for (const data::QuerySpec& spec : data::benchmark_queries()) {
      Scope q(tr, "bench.query", Layer::Bench, query_no++);
      const data::Dataset& d = datasets_.at(spec.dataset);
      const query::ExecConfig cfg = config_for(spec.dataset);
      llm::EngineConfig ec = cfg.engine;
      ec.cache_enabled = cfg.cache_enabled;
      llm::ServingEngine engine(llm::CostModel(cfg.model, cfg.gpu), ec);
      // Multi-LLM queries keep one cache across both stages (run_query).
      const bool shared = spec.type == data::QueryType::MultiLlm;
      std::optional<cache::PrefixCache> session;
      if (shared) session.emplace(engine.make_session_cache());

      query::QueryRunResult r;
      r.query_id = spec.id;
      StageOut s1 = stage(tr, d.table, d.fds, spec, spec.stage1,
                          d.truth_for(spec.stage1.truth_key), d.key_field,
                          cfg, engine, session ? &*session : nullptr, o);
      r.total_seconds += s1.engine.total_seconds;
      std::vector<std::size_t> selected;
      {
        Scope s(tr, "query.stage1_epilogue", Layer::Query);
        selected = query::stage1_epilogue(r, spec, d, s1.answers);
      }
      std::vector<StageOut> stages;
      stages.push_back(std::move(s1));
      if (!selected.empty() && spec.stage2) {
        query::Stage2Input in2;
        {
          Scope s(tr, "query.make_stage2_input", Layer::Query);
          in2 = query::make_stage2_input(d, *spec.stage2, selected);
        }
        stages.push_back(stage(tr, in2.table, d.fds, spec, *spec.stage2,
                               in2.truth, d.key_field, cfg, engine,
                               session ? &*session : nullptr, o));
        r.total_seconds += stages.back().engine.total_seconds;
      }
      for (const StageOut& s : stages) {
        o.invocations += s.rows;
        o.attempted += s.rows;
        hit += s.engine.cached_prompt_tokens;
        prompt += s.engine.prompt_tokens;
        ggr_nodes += s.ggr.recursion_nodes;
        ggr_groups += s.ggr.groups_scored;
        accumulate(all, s.engine);
        // A batch job submits every request at t = 0 of its engine, so
        // TTFT is first_token_time.
        for (const llm::RequestResult& res : s.results) {
          ttft.push_back(res.first_token_time);
          if (res.output_tokens > 1)
            itl.push_back((res.finish_time - res.first_token_time) /
                          static_cast<double>(res.output_tokens - 1));
        }
      }
      jct += r.total_seconds;
    }
    const auto good = static_cast<double>(
        std::count_if(ttft.begin(), ttft.end(),
                      [](double t) { return t <= kTtftLimitS; }));
    o.sim.push_back({"phr", ratio(hit, prompt), "fraction"});
    o.sim.push_back({"sim_jct_s", jct, "sim_s"});
    o.sim.push_back({"sim_p50_ttft_s", util::percentile(ttft, 50.0), "sim_s"});
    o.sim.push_back({"sim_p99_ttft_s", util::percentile(ttft, 99.0), "sim_s"});
    o.sim.push_back({"sim_p99_itl_s", util::percentile(itl, 99.0), "sim_s"});
    o.sim.push_back({"sim_goodput_rps", jct > 0.0 ? good / jct : 0.0,
                     "1/sim_s"});
    add_engine_counters(all, o);
    o.counters.push_back(
        {"core.ggr_nodes", static_cast<double>(ggr_nodes), "count"});
    o.counters.push_back(
        {"core.ggr_groups_scored", static_cast<double>(ggr_groups), "count"});
    return o;
  }

  void reference(Outcome& timed) override {
    Outcome ref = layered(nullptr);
    require_same_sim(ref, timed, "run_query vs layered pass");
    for (const std::string& e : ref.errors) timed.fail(0, e);
    timed.failed += ref.failed;
    for (const Metric& m : ref.sim)
      if (!timed.find_sim(m.name)) timed.sim.push_back(m);
  }

 private:
  struct StageOut {
    llm::EngineMetrics engine;
    std::vector<std::string> answers;
    std::vector<llm::RequestResult> results;
    std::size_t rows = 0;
    core::GgrCounters ggr;
  };

  static double ratio(std::uint64_t a, std::uint64_t b) {
    return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  }

  query::ExecConfig config_for(const std::string& key) const {
    query::ExecConfig cfg =
        query::ExecConfig::standard(query::Method::CacheGgr);
    cfg.scale_kv_pool(kv_fraction(key, datasets_.at(key).table.num_rows()));
    return cfg;
  }

  static std::string anchor_line(const data::QuerySpec& spec,
                                 const data::Dataset& d,
                                 const query::QueryRunResult& r) {
    const PaperAnchor* a = nullptr;
    for (const PaperAnchor& x : kAnchors)
      if (spec.dataset == x.dataset) a = &x;
    const bool table2 = spec.type == data::QueryType::Filter ||
                        spec.type == data::QueryType::Rag;
    std::string line = "anchor " + spec.id + " rows=" +
                       std::to_string(d.table.num_rows()) +
                       fmt(" phr=%.4f", r.overall_phr());
    line += table2 && a ? fmt(" paper_table2_phr=%.2f", a->table2_ggr_phr)
                        : std::string(" paper_table2_phr=-");
    line += fmt(" ggr_solver_s=%.4f", r.solver_seconds);
    if (a) line += fmt(" paper_table5_s=%.1f(full size)", a->table5_solver_s);
    return line;
  }

  StageOut stage(Tracer* tr, const table::Table& t, const table::FdSet& fds,
                 const data::QuerySpec& spec, const data::StageSpec& st,
                 const std::vector<std::string>& truth,
                 const std::string& key_field, const query::ExecConfig& cfg,
                 llm::ServingEngine& engine,
                 cache::PrefixCache* session, Outcome& o) const {
    StageOut out;
    table::Table tab;
    {
      Scope s(tr, "query.stage_table", Layer::Query);
      tab = st.fields.empty() ? t : t.project(st.fields);
    }
    core::GgrResult g;
    {
      Scope s(tr, "core.ggr", Layer::Core, tab.num_rows());
      g = core::ggr(tab, fds, cfg.planner.ggr);
    }
    out.ggr = g.counters;
    out.rows = tab.num_rows();

    const auto& tok = tokenizer::global_tokenizer();
    const query::PromptTemplate tmpl{spec.system_prompt, st.user_prompt};
    std::string prefix_text;
    {
      Scope s(tr, "query.render", Layer::Query);
      prefix_text = query::render_instruction_prefix(tmpl);
    }
    tokenizer::TokenSeq prefix;
    {
      Scope s(tr, "tokenizer.encode", Layer::Tokenizer);
      prefix = tok.encode(prefix_text);
    }
    const llm::TaskModel model(cfg.model_profile);
    std::vector<llm::Request> requests;
    requests.reserve(tab.num_rows());
    out.answers.assign(tab.num_rows(), std::string());
    for (std::size_t pos = 0; pos < g.ordering.num_rows(); ++pos) {
      const std::size_t row = g.ordering.row_at(pos);
      const auto& fields = g.ordering.fields_at(pos);
      llm::Request req;
      req.id = pos;
      req.row_tag = row;
      std::string json;
      {
        Scope s(tr, "query.render", Layer::Query, pos);
        json = query::render_row_json(tab, row, fields);
      }
      {
        Scope s(tr, "tokenizer.encode", Layer::Tokenizer, pos);
        req.prompt = prefix;
        tok.encode_append(json, req.prompt);
      }
      {
        // The task model's answer and decode length, as build_requests
        // derives them.
        Scope s(tr, "llm.task_model", Layer::Llm, pos);
        std::string row_key;
        if (!key_field.empty() && tab.schema().has(key_field)) {
          row_key = tab.cell(row, tab.schema().require(key_field));
        } else {
          for (std::size_t c = 0; c < tab.num_cols(); ++c) {
            row_key += tab.cell(row, c);
            row_key += '\x1f';
          }
        }
        if (!st.answers.empty() && row < truth.size() &&
            !truth[row].empty()) {
          const double frac =
              query::key_field_fraction(tab.schema(), fields, key_field);
          out.answers[row] = model.answer(row_key, truth[row], st.answers,
                                          frac, spec.position_sensitivity);
        } else {
          out.answers[row] =
              model.generate_text(row_key, st.avg_output_tokens);
        }
        req.output_tokens =
            std::max<std::size_t>(1, tok.count(out.answers[row]));
      }
      requests.push_back(std::move(req));
    }

    // ServingEngine::run(requests, cache) spelled out through its public
    // EngineSession (submit everything, then drain), so the session's own
    // events reach the sink beside the cache's.
    std::optional<cache::PrefixCache> own;
    cache::PrefixCache& cache =
        session ? *session : own.emplace(engine.make_session_cache());
    {
      Scope s(tr, "llm.engine_run", Layer::Llm, requests.size());
      llm::EngineSession run(engine, cache);
      if (tr) run.set_trace(tr->sink(), 0);
      for (const llm::Request& r : requests) run.submit(r);
      out.results = run.drain();
      out.engine = run.metrics();
      run.set_trace(nullptr, 0);  // the cache may outlive this session
    }

    std::vector<std::uint64_t> ids;
    ids.reserve(out.results.size());
    for (const llm::RequestResult& res : out.results) ids.push_back(res.id);
    check_once(ids, requests.size(), o, spec.id.c_str());
    check_tokens(out.engine, requests.size(), o, spec.id.c_str());
    return out;
  }

  std::map<std::string, data::Dataset> datasets_;
};

// ---------------------------------------------------------------------------
// Shared set-up of the two run_online workloads: the movies filter query's
// stage table, its prompt, and the serving configuration both start from.

struct MoviesStream {
  table::Table table;
  table::FdSet fds;
  serve::OnlineConfig config;
  double kvf = 1.0;

  /// `fields` empty = the filter query's own fields (every column).
  void make(Tracer* tr, std::size_t rows, std::uint64_t seed,
            const std::vector<std::string>& fields = {}) {
    const data::Dataset d = generate(tr, "movies", rows, seed);
    const data::QuerySpec& spec = data::query_by_id("movies-filter");
    table = fields.empty() ? d.table : d.table.project(fields);
    fds = d.fds;
    kvf = kv_fraction("movies", table.num_rows());
    config = serve::OnlineConfig{};
    config.prompt.system_prompt = spec.system_prompt;
    config.prompt.user_prompt = spec.stage1.user_prompt;
    config.ttft_slo_seconds = kTtftLimitS;
    config.router = serve::RouterPolicy::PrefixAffinity;
  }
};

// ---------------------------------------------------------------------------
// online_zipf: movies-filter rows streamed through run_online at a ladder
// of offered rates; 8 Zipf tenants, Tenant-GGR windows, 4 replicas.

class OnlineZipf final : public Workload {
 public:
  static constexpr std::size_t kRows = 1500;
  static constexpr std::size_t kRequestsPerRow = 4;
  static constexpr std::size_t kReplicas = 4;
  static constexpr double kLadder[] = {24.0, 32.0, 48.0, 64.0};
  static constexpr std::size_t kNominalIndex = 1;  // 32 r/s

  const char* name() const override { return "online_zipf"; }

  void setup(std::uint64_t seed, Tracer* tr) override {
    s_.make(tr, kRows, seed);
    serve::OnlineConfig& c = s_.config;
    c.avg_output_tokens = data::query_by_id("movies-filter").stage1.avg_output_tokens;
    c.scheduler.policy = serve::Policy::TenantGgr;
    c.scheduler.window_rows = 64;
    c.scheduler.max_wait_seconds = 1.0;
    c.n_replicas = kReplicas;
    // Fixed, tight fleet budget: half the data-proportional pool, split
    // over the replicas (scale_kv_pool floors it at 256 blocks each).
    c.scale_kv_pool(0.5 * s_.kvf / static_cast<double>(kReplicas));
    streams_.clear();
    for (double rate : kLadder) {
      Scope sp(tr, "serve.generate_arrivals", Layer::ServeGen,
               static_cast<std::uint64_t>(rate));
      serve::WorkloadOptions w;
      w.arrival_rate = rate;
      w.n_tenants = 8;
      w.tenant_skew = 1.0;
      w.n_requests = kRequestsPerRow * s_.table.num_rows();
      w.seed = seed;
      streams_.push_back(serve::generate_arrivals(s_.table.num_rows(), w));
    }
  }

  Outcome run() override { return layered(nullptr); }

  Outcome layered(Tracer* tr) override {
    Outcome o;
    serve::OnlineConfig cfg = s_.config;
    cfg.trace.sink = tr ? tr->sink() : nullptr;
    double max_rate = 0.0;
    llm::EngineMetrics all;
    std::size_t windows = 0;
    serve::OnlineRunResult nominal;
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      serve::OnlineRunResult r;
      {
        Scope root(tr, "bench.iteration", Layer::Bench);
        Scope s(tr, "serve.run_online", Layer::Serve,
                static_cast<std::uint64_t>(kLadder[i]));
        r = serve::run_online(s_.table, s_.fds, streams_[i], cfg);
      }
      const auto n = streams_[i].size();
      o.invocations += r.requests.size();
      o.attempted += n;
      check_once(served_ids(r), n, o, "online_zipf");
      check_tokens(r.engine, n, o, "online_zipf");
      if (r.latency.p99_ttft <= kTtftLimitS) max_rate = kLadder[i];
      o.notes.push_back(fmt("ladder rate=%.0f/s p99_ttft=%.4f sim_s phr=%.4f",
                            kLadder[i], r.latency.p99_ttft,
                            r.engine.prompt_cache_hit_rate()));
      accumulate(all, r.engine);
      windows += r.windows;
      replay_prompts(tr, s_.table, streams_[i], r, s_.config.prompt);
      if (i == kNominalIndex) nominal = std::move(r);
    }
    // Latency results at the nominal rate; counters summed over the ladder
    // (imbalance and queueing tail at the nominal rate).
    add_latency_sim(nominal, o);
    add_serving_counters(nominal, o, &all, windows);
    o.sim.push_back({"sim_max_rate_rps", max_rate, "1/sim_s"});
    return o;
  }

 private:
  MoviesStream s_;
  std::vector<std::vector<serve::Arrival>> streams_;
};

// ---------------------------------------------------------------------------
// agent_sessions: Agent tool loops on a 2-tier cache with chunked prefill
// and preemption; follow-up turns arrive as feedback.

class AgentSessions final : public Workload {
 public:
  static constexpr std::size_t kRows = 1500;
  static constexpr std::size_t kRoots = 2000;
  static constexpr std::size_t kTurns = 4;

  const char* name() const override { return "agent_sessions"; }

  void setup(std::uint64_t seed, Tracer* tr) override {
    s_.make(tr, kRows, seed,
            {"movietitle", "genres", "reviewtype", "topcritic"});
    serve::OnlineConfig& c = s_.config;
    c.avg_output_tokens = 6.0;
    c.class_output_multiplier = {0.5, 1.0, 4.0};
    c.scheduler.policy = serve::Policy::Fifo;
    c.scheduler.window_rows = 16;
    c.scheduler.max_wait_seconds = 0.5;
    c.scheduler.priority_order = true;
    c.scheduler.aging_seconds = 8.0;
    c.engine.max_batch_size = 8;
    c.engine.cache_tiers = 2;
    // Bounded host tier. Unbounded, it keeps every block of every finished
    // session, and the demotion scans grow with it: a pass then costs
    // quadratically many steps, and how many depends on the seed.
    c.engine.host_capacity_blocks = 8192;
    c.engine.prefill_chunk_tokens = 64;
    c.engine.preemption = true;
    c.engine.priority_aging_seconds = 8.0;
    c.n_replicas = 2;
    c.scale_kv_pool(0.5 * s_.kvf / 2.0);
    Scope sp(tr, "serve.generate_sessions", Layer::ServeGen, kRoots);
    serve::WorkloadOptions w;
    w.arrival_rate = 2.0;  // roots per simulated second
    w.n_tenants = 9;
    w.tenant_skew = 1.0;
    w.tenant_classes = {llm::PriorityClass::Interactive,
                        llm::PriorityClass::Standard,
                        llm::PriorityClass::Batch};
    w.n_requests = kRoots;
    w.seed = seed;
    serve::SessionOptions so;
    so.kind = serve::SessionKind::Agent;
    so.turns = kTurns;
    sessions_ = serve::generate_sessions(s_.table.num_rows(), w, so);
  }

  Outcome run() override { return layered(nullptr); }

  Outcome layered(Tracer* tr) override {
    Outcome o;
    serve::OnlineConfig cfg = s_.config;
    cfg.sessions = &sessions_;
    cfg.trace.sink = tr ? tr->sink() : nullptr;
    serve::OnlineRunResult r;
    {
      Scope root(tr, "bench.iteration", Layer::Bench);
      Scope s(tr, "serve.run_online", Layer::Serve, kRoots);
      r = serve::run_online(s_.table, s_.fds, sessions_.roots, cfg);
    }
    const std::size_t expected = sessions_.roots.size() * kTurns;
    o.invocations = r.requests.size();
    o.attempted = expected;
    check_once(served_ids(r), expected, o, "agent_sessions");
    check_tokens(r.engine, expected, o, "agent_sessions");
    const auto spawns = static_cast<std::size_t>(
        std::count_if(r.requests.begin(), r.requests.end(),
                      [](const serve::ServedRequest& sr) { return sr.turn > 0; }));
    if (spawns != sessions_.roots.size() * (kTurns - 1))
      o.fail(expected, "agent_sessions: " + std::to_string(spawns) +
                           " follow-up turns, expected roots x (turns - 1)");
    if (tr && tr->event_count(obs::EventKind::TurnSpawn) != spawns)
      o.fail(expected, "agent_sessions: TurnSpawn events != follow-ups");
    add_latency_sim(r, o);
    add_serving_counters(r, o);
    replay_prompts(tr, s_.table, sessions_.roots, r, s_.config.prompt);
    return o;
  }

 private:
  MoviesStream s_;
  serve::SessionWorkload sessions_;
};

// ---------------------------------------------------------------------------
// served_queries: 8 concurrent movies/products queries through one shared
// 2-replica fleet (QueryClient) with the exact-duplicate memo on.

class ServedQueries final : public Workload {
 public:
  static constexpr std::size_t kRows = 2000;
  /// Simulated seconds between one query's row submissions.
  static constexpr double kRequestInterval = 0.6;

  const char* name() const override { return "served_queries"; }

  void setup(std::uint64_t seed, Tracer* tr) override {
    movies_ = generate(tr, "movies", kRows, seed);
    products_ = generate(tr, "products", kRows, seed);
  }

  Outcome run() override { return layered(nullptr); }

  Outcome layered(Tracer* tr) override {
    Outcome o;
    serve::QueryClient::Options opts;
    opts.ttft_slo_seconds = kTtftLimitS;
    opts.trace.sink = tr ? tr->sink() : nullptr;
    serve::ServedQueriesResult r;
    {
      Scope root(tr, "bench.iteration", Layer::Bench);
      Scope s(tr, "serve.run_queries_served", Layer::Serve);
      r = serve::run_queries_served(specs(), fleet(), opts);
    }
    std::size_t expected = 0;
    for (const query::QueryRunResult& q : r.queries)
      for (const query::StageMetrics& s : q.stages) expected += s.rows;
    o.invocations = r.serving.requests.size();
    o.attempted = expected;
    check_once(served_ids(r.serving), expected, o, "served_queries");
    check_tokens(r.serving.engine, expected, o, "served_queries");
    add_latency_sim(r.serving, o);
    add_serving_counters(r.serving, o);
    last_ = std::move(r.queries);
    return o;
  }

  /// Served answers must equal the offline run_query answers.
  void reference(Outcome& timed) override {
    const std::vector<serve::ServedQuerySpec> qs = specs();
    for (std::size_t i = 0; i < qs.size(); ++i) {
      const query::QueryRunResult off =
          query::run_query(*qs[i].dataset, *qs[i].query, qs[i].config);
      const query::QueryRunResult& on = last_.at(i);
      if (off.answers != on.answers || off.rows_selected != on.rows_selected ||
          off.aggregate != on.aggregate) {
        std::uint64_t rows = 0;
        for (const query::StageMetrics& s : on.stages) rows += s.rows;
        timed.fail(rows, "served_queries: " + qs[i].query->id +
                             " answers differ from offline run_query");
      }
    }
  }

 private:
  std::vector<serve::ServedQuerySpec> specs() const {
    static const char* const kMix[] = {
        "movies-filter",      "movies-filter",     "movies-projection",
        "movies-aggregation", "movies-multi",      "products-filter",
        "products-projection", "products-multi"};
    std::vector<serve::ServedQuerySpec> qs;
    for (std::size_t i = 0; i < std::size(kMix); ++i) {
      serve::ServedQuerySpec q;
      q.query = &data::query_by_id(kMix[i]);
      q.dataset = q.query->dataset == "movies" ? &movies_ : &products_;
      q.config = query::ExecConfig::standard(query::Method::CacheGgr);
      q.config.scale_kv_pool(
          kv_fraction(q.query->dataset, q.dataset->table.num_rows()));
      q.start_time = 0.05 * static_cast<double>(i);
      q.request_interval = kRequestInterval;
      qs.push_back(q);
    }
    return qs;
  }

  serve::FleetConfig fleet() const {
    serve::FleetConfig f = serve::fleet_from_exec(
        query::ExecConfig::standard(query::Method::CacheGgr));
    f.n_replicas = 2;
    f.router = serve::RouterPolicy::PrefixAffinity;
    // Fixed fleet budget: the data-proportional single-engine pool, split.
    f.scale_kv_pool(kv_fraction("movies", movies_.table.num_rows()) / 2.0);
    return f;
  }

  data::Dataset movies_;
  data::Dataset products_;
  std::vector<query::QueryRunResult> last_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "paper_batch", "online_zipf", "agent_sessions", "served_queries"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "paper_batch") return std::make_unique<PaperBatch>();
  if (name == "online_zipf") return std::make_unique<OnlineZipf>();
  if (name == "agent_sessions") return std::make_unique<AgentSessions>();
  if (name == "served_queries") return std::make_unique<ServedQueries>();
  return nullptr;
}

}  // namespace perfbench
