#pragma once
// Query-over-serving: relational LLM queries executed through the shared
// online replica fleet instead of a private per-stage engine.
//
// PRs 1–2 built an online serving stack — windowed scheduler, replica
// router, merged virtual clock — while the query executor kept spinning
// up a private offline ServingEngine per stage. This header bridges the
// layers: a QueryClient fronts one ReplicaFleet shared by N concurrent
// queries; each query opens a QuerySession (its *lane*, whose index is
// the tenant tag the router sees) and submits its per-row LLM invocations
// as timestamped requests. The client runs the fleet's event loop
// (ReplicaFleet::run) with its submission heap as the source and
// delivers completions through per-request callbacks — the stage collects its answers keyed by row id, so completion
// order cannot change query results (the order-independence property
// tests/serve/ pins: one query served here returns per-row answers
// identical to the offline run_stage path).
//
// Exact-duplicate memo (paper's dedup observation: relational workloads
// repeat whole invocations, not just prefixes): two requests with
// identical prompt tokens and output length are the same simulated
// computation, so the client executes only the first (the *leader*) and
// fans its completion out to every duplicate — across rows of one query
// and across queries. Memo accounting (DedupStats) is strictly separate
// from prefix-hit accounting: a fanned-out completion never touches a
// replica cache, so PHR keeps meaning "prompt tokens served from KV".

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/benchmark_suite.hpp"
#include "query/executor.hpp"
#include "serve/fleet.hpp"
#include "serve/online.hpp"

namespace llmq::serve {

class QueryClient;

/// One query's lane into the shared fleet. Obtained from
/// QueryClient::open_session(); lives as long as the client.
class QuerySession {
 public:
  using Completion = std::function<void(const ServedRequest&)>;

  /// Submit one invocation at virtual time `time` (clamped forward to the
  /// client's clock; equal times dispatch in submission order).
  /// `req.row_tag` keys the completion back to the caller's row; the
  /// callback (optional) fires inside QueryClient::run() and may submit
  /// further requests — that is how multi-stage queries pipeline.
  void submit(double time, llm::Request req, Completion on_complete = {});

  std::uint32_t lane() const { return lane_; }
  const std::string& label() const { return label_; }
  llm::PriorityClass priority() const { return priority_; }

 private:
  friend class QueryClient;
  QuerySession(QueryClient& client, std::uint32_t lane, std::string label,
               llm::PriorityClass priority)
      : client_(client),
        lane_(lane),
        label_(std::move(label)),
        priority_(priority) {}
  QueryClient& client_;
  std::uint32_t lane_;
  std::string label_;
  llm::PriorityClass priority_;
};

/// QueryClient knobs. A namespace-scope type (not nested) so `= {}`
/// default arguments work while QueryClient is still incomplete.
struct QueryClientOptions {
  double ttft_slo_seconds = 0.0;  // goodput SLO for the latency summary
  bool dedup_exact = true;        // the exact-duplicate memo layer
  /// Observability wiring (event sink + gauge sampler), threaded into the
  /// shared fleet exactly as OnlineConfig::trace is for arrival streams.
  obs::TraceConfig trace;
};

/// Multi-source submission front-end over a ReplicaFleet.
class QueryClient {
 public:
  using Options = QueryClientOptions;

  explicit QueryClient(const FleetConfig& fleet, Options options = {});
  ~QueryClient();
  QueryClient(const QueryClient&) = delete;
  QueryClient& operator=(const QueryClient&) = delete;

  /// Open a lane; the lane index (== the tenant tag used for routing) is
  /// assignment order. `priority` is the scheduling class every
  /// invocation submitted on this lane is served under — the query lane
  /// is the unit that maps onto priority classes (an interactive
  /// dashboard query vs a batch analytics scan), and with
  /// FleetConfig::engine.preemption enabled an interactive lane's rows
  /// may preempt a batch lane's running rows on the shared replicas.
  QuerySession& open_session(
      std::string label,
      llm::PriorityClass priority = llm::PriorityClass::Standard);

  /// Drive the merged event loop until every submitted request has
  /// completed. Completion callbacks run inside and may submit more
  /// requests; those are served before run() returns. Callable
  /// repeatedly — replica caches and the dedup memo stay warm.
  void run();

  /// Current merged virtual clock.
  double now() const { return now_; }

  /// Fleet-level view of everything served so far: completion-ordered
  /// requests, latency, aggregate + per-replica engine metrics, per-query
  /// lanes (per_query), and dedup accounting. `windows` / `solve_seconds`
  /// / `emitted` / `phc` are left empty — the query planner, not a
  /// serving-side scheduler, ordered these requests.
  OnlineRunResult result() const;

  /// One timestamped submission (public so the heap comparator in
  /// query_client.cpp can see it; not part of the caller API).
  struct Submission {
    double time = 0.0;
    std::uint64_t seq = 0;  // submission order; ties on time dispatch FIFO
    std::uint32_t lane = 0;
    llm::Request req;
    QuerySession::Completion done;
  };

 private:
  friend class QuerySession;

  struct MemoEntry;
  struct Meta;  // per-request bookkeeping (see query_client.cpp)

  void process(Submission s);
  void dispatch_to_fleet(Meta meta, llm::Request req);
  void on_engine_complete(const llm::RequestResult& res, std::size_t replica);
  void complete_from_memo(Meta meta, const MemoEntry& entry);
  void record(const ServedRequest& sr, const QuerySession::Completion& done);

  Options options_;
  ReplicaFleet fleet_;
  std::vector<std::unique_ptr<QuerySession>> sessions_;
  std::vector<QueryLaneMetrics> lanes_;

  std::vector<Submission> heap_;  // min-heap on (time, seq)
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_id_ = 0;  // internal globally-unique request ids
  std::unordered_map<std::uint64_t, std::unique_ptr<Meta>> inflight_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Meta>> waiting_;
  /// Exact-duplicate memo, keyed on the full prompt token bytes + output
  /// length (exact equality, not a hash digest — the memo must never lie).
  /// unordered_map references are stable, so Meta can hold entry pointers.
  std::unordered_map<std::string, MemoEntry> memo_;

  std::vector<ServedRequest> requests_;  // completion order
  DedupStats dedup_;
  double now_ = 0.0;
};

/// One query's admission into a shared serving run.
struct ServedQuerySpec {
  const data::Dataset* dataset = nullptr;
  const data::QuerySpec* query = nullptr;
  /// Planner + task-model configuration for this query. The engine half
  /// (engine/model/gpu) is ignored — execution happens on the shared
  /// fleet.
  query::ExecConfig config;
  /// Scheduling class of this query's lane (see QueryClient::open_session).
  llm::PriorityClass priority = llm::PriorityClass::Standard;
  /// Virtual time the query arrives at the endpoint.
  double start_time = 0.0;
  /// Pacing between consecutive row submissions (0 = the whole stage
  /// lands at start_time). Pacing is what makes concurrent queries
  /// interleave on the fleet rather than queue whole-stage-at-a-time.
  double request_interval = 0.0;
};

struct ServedQueriesResult {
  /// Per-query results, parallel to the input specs. Stage metrics are
  /// attributed from this query's completions only (engine-visible
  /// tokens; memo-served rows counted in StageMetrics::dedup_hits).
  std::vector<query::QueryRunResult> queries;
  /// The shared fleet's view: latency, engine aggregate, per-replica and
  /// per-query attribution, dedup stats.
  OnlineRunResult serving;
};

/// Run N relational queries concurrently through one shared fleet. Each
/// query runs stage 1, applies its relational epilogue, and (multi-LLM)
/// submits stage 2 from inside the event loop — so stage 2 of one query
/// interleaves with other queries' stage 1 on the same replicas.
ServedQueriesResult run_queries_served(
    const std::vector<ServedQuerySpec>& queries, const FleetConfig& fleet,
    QueryClient::Options options = {});

/// A one-replica fleet configured exactly like `config`'s engine half —
/// what the offline path would run on. Adjust n_replicas / router /
/// scale_kv_pool afterwards; this is the parity baseline the
/// served-equals-offline tests are built on.
FleetConfig fleet_from_exec(const query::ExecConfig& config);

}  // namespace llmq::serve
