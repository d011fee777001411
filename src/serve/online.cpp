#include "serve/online.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "core/phc.hpp"
#include "llm/cost_model.hpp"

namespace llmq::serve {

namespace {

/// Bookkeeping for a dispatched, not-yet-finished request.
struct InFlight {
  Arrival arrival;
  double dispatch_time = 0.0;
};

/// Validate the stream (time-sorted, unique ids, rows in range) and build
/// id -> arrival index (for the emitted Ordering over the arrival table).
std::unordered_map<std::uint64_t, std::size_t> index_arrivals(
    const table::Table& t, const std::vector<Arrival>& arrivals) {
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  index_of.reserve(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    // NaN compares false against everything, so it would slip past the
    // ordering check and the event loop would never dispatch it.
    if (!std::isfinite(arrivals[i].time))
      throw std::invalid_argument("run_online: arrival times must be finite");
    if (i > 0 && arrivals[i].time < arrivals[i - 1].time)
      throw std::invalid_argument("run_online: arrivals must be time-sorted");
    if (arrivals[i].row >= t.num_rows())
      throw std::invalid_argument("run_online: arrival row out of range");
    if (!index_of.emplace(arrivals[i].id, i).second)
      throw std::invalid_argument("run_online: arrival ids must be unique");
  }
  return index_of;
}

/// When config.sessions is set, the arrivals handed to run_online must be
/// exactly sessions->roots (same ids, same session tags, in order) — the
/// follow-up planner indexes plans by root position. Throws
/// std::invalid_argument on any mismatch; no-op when sessions is null.
void validate_sessions(const OnlineConfig& config,
                       const std::vector<Arrival>& arrivals) {
  if (config.sessions == nullptr) return;
  const SessionWorkload& sw = *config.sessions;
  if (sw.plans.size() != sw.roots.size())
    throw std::invalid_argument(
        "run_online: session workload plans/roots size mismatch");
  if (arrivals.size() != sw.roots.size())
    throw std::invalid_argument(
        "run_online: with config.sessions set, arrivals must be "
        "sessions->roots");
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    if (arrivals[i].id != sw.roots[i].id ||
        arrivals[i].session != static_cast<std::uint64_t>(i) ||
        arrivals[i].turn != 0)
      throw std::invalid_argument(
          "run_online: arrival stream does not match sessions->roots");
  }
}

/// Heap comparator: std::push_heap builds a max-heap, so "later" on top
/// of the comparison gives a min-heap on (time, id).
bool arrives_later(const Arrival& x, const Arrival& y) {
  if (x.time != y.time) return x.time > y.time;
  return x.id > y.id;
}

/// Merged arrival source: the static time-sorted stream plus feedback
/// arrivals (session follow-up turns) injected mid-run. Pop order is
/// (time, id) across both sources — deterministic because feedback ids
/// are allocated in oracle completion order.
class ArrivalFeed {
 public:
  explicit ArrivalFeed(const std::vector<Arrival>& statics)
      : statics_(&statics) {}

  bool exhausted() const { return next_ >= statics_->size() && heap_.empty(); }

  /// Time of the next arrival from either source; +infinity when drained.
  double next_time() const {
    double t = std::numeric_limits<double>::infinity();
    if (next_ < statics_->size()) t = (*statics_)[next_].time;
    if (!heap_.empty()) t = std::min(t, heap_.front().time);
    return t;
  }

  /// Remove and return the (time, id)-least pending arrival. Precondition:
  /// !exhausted().
  Arrival pop() {
    const bool have_static = next_ < statics_->size();
    if (have_static &&
        (heap_.empty() || !arrives_later((*statics_)[next_], heap_.front())))
      return (*statics_)[next_++];
    std::pop_heap(heap_.begin(), heap_.end(), arrives_later);
    Arrival a = heap_.back();
    heap_.pop_back();
    return a;
  }

  /// Inject a feedback arrival. Its time may be anywhere at or after the
  /// current feed position; the heap merges it into (time, id) order.
  void push_feedback(const Arrival& a) {
    heap_.push_back(a);
    std::push_heap(heap_.begin(), heap_.end(), arrives_later);
  }

 private:
  const std::vector<Arrival>* statics_;
  std::size_t next_ = 0;
  std::vector<Arrival> heap_;  // min-heap on (time, id)
};

/// Session follow-up engine. Lifecycle per spawning arrival: on_dispatch
/// (remember the parent's prompt + register its think-time gap) ->
/// on_complete (materialize the child arrival at finish + gap and
/// precompute its prompt prefix = parent prompt + synthetic output) ->
/// make_child_prompt at the child's own dispatch (prefix + segment label
/// + the follow-up row rendered with the child's planned field order).
/// Inactive (null sessions) trackers no-op.
class SessionTracker {
 public:
  explicit SessionTracker(const SessionWorkload* sessions)
      : sessions_(sessions),
        next_id_(sessions != nullptr ? sessions->roots.size() : 0),
        turns_(sessions != nullptr ? sessions->kind : SessionKind::Chat) {}

  /// Will this arrival spawn a follow-up turn when it completes?
  bool will_spawn(const Arrival& a) const {
    return sessions_ != nullptr && a.session != kNoSession &&
           a.turn < sessions_->plans[a.session].follow_ups.size();
  }

  void on_dispatch(const Arrival& a, const tokenizer::TokenSeq& prompt) {
    if (!will_spawn(a)) return;
    const FollowUpPlan& fo = sessions_->plans[a.session].follow_ups[a.turn];
    ctx_.emplace(a.id, SpawnCtx{prompt, fo.gap_seconds});
  }

  /// The follow-up arrival spawned by this completion (nullopt when the
  /// session is exhausted or inactive). Call once per completion, in
  /// oracle completion order — child ids are allocated sequentially here.
  std::optional<Arrival> on_complete(const Arrival& a,
                                     const llm::RequestResult& res) {
    if (!will_spawn(a)) return std::nullopt;
    const auto it = ctx_.find(a.id);
    if (it == ctx_.end())
      throw std::logic_error("SessionTracker: completion without dispatch");
    SpawnCtx ctx = std::move(it->second);
    ctx_.erase(it);

    const FollowUpPlan& fo = sessions_->plans[a.session].follow_ups[a.turn];
    Arrival child;
    child.id = next_id_++;
    child.time = res.finish_time + ctx.gap;
    child.row = fo.row;
    child.tenant = a.tenant;
    child.priority = a.priority;
    child.session = a.session;
    child.turn = a.turn + 1;
    child.parent = a.id;

    tokenizer::TokenSeq prefix = std::move(ctx.prompt);
    const tokenizer::TokenSeq synth =
        synth_output_tokens(a.session, a.turn, res.output_tokens);
    prefix.insert(prefix.end(), synth.begin(), synth.end());
    child_prefix_.emplace(child.id, std::move(prefix));
    return child;
  }

  /// Materialize a follow-up turn's full prompt (consumes the stored
  /// prefix; call exactly once per spawned child, at its dispatch).
  tokenizer::TokenSeq make_child_prompt(const Arrival& a,
                                        const table::Table& t,
                                        std::span<const std::size_t> fo) {
    const auto it = child_prefix_.find(a.id);
    if (it == child_prefix_.end())
      throw std::logic_error(
          "SessionTracker: follow-up dispatch without spawn");
    tokenizer::TokenSeq prompt = std::move(it->second);
    child_prefix_.erase(it);
    // Token-for-token encode(label + rendered row), so a test can still
    // reproduce the turn's added length as count(label + rendered row).
    turns_.append(a.turn, t, a.row, fo, prompt);
    return prompt;
  }

 private:
  struct SpawnCtx {
    tokenizer::TokenSeq prompt;  // the parent's prompt, verbatim
    double gap = 0.0;
  };

  const SessionWorkload* sessions_;
  std::uint64_t next_id_ = 0;
  SessionTurnEncoder turns_;
  std::unordered_map<std::uint64_t, SpawnCtx> ctx_;  // by parent id
  /// Child id -> parent prompt + synthetic parent output: the token-exact
  /// prefix contract the session property tests (and audit_trace) pin.
  std::unordered_map<std::uint64_t, tokenizer::TokenSeq> child_prefix_;
};

/// Per-tenant prompt encoders, built lazily: each tenant's instruction
/// prefix differs, so rows share the instruction prefix only within a
/// tenant — the structure that makes Tenant-GGR partitioning (and
/// tenant-affine routing) matter.
class EncoderMap {
 public:
  explicit EncoderMap(const query::PromptTemplate& base) : base_(base) {}

  query::PromptEncoder& for_tenant(std::uint32_t tenant) {
    auto it = encoders_.find(tenant);
    if (it == encoders_.end()) {
      query::PromptTemplate tmpl = base_;
      tmpl.system_prompt += " [tenant " + std::to_string(tenant) + "]";
      it = encoders_.emplace(tenant, query::PromptEncoder(std::move(tmpl)))
               .first;
    }
    return it->second;
  }

 private:
  query::PromptTemplate base_;
  std::unordered_map<std::uint32_t, query::PromptEncoder> encoders_;
};

/// Materialize the engine request for an arrival: id/row tagging, the
/// priority class, and the task model's per-request decode length (keyed
/// so the same arrival always gets the same length, scaled by the class
/// and per-tenant output multipliers). An enabled predictor stamps
/// predicted_output_tokens (0 otherwise = no prediction).
llm::Request make_request(const Arrival& a, tokenizer::TokenSeq prompt,
                          const llm::TaskModel& task_model,
                          const OnlineConfig& config,
                          const LengthPredictor& predictor) {
  llm::Request r;
  r.id = a.id;
  r.row_tag = a.row;
  r.prompt = std::move(prompt);
  r.priority = a.priority;
  const std::string key = std::to_string(a.tenant) + ":" +
                          std::to_string(a.row) + ":" + std::to_string(a.id);
  double avg =
      config.avg_output_tokens *
      config.class_output_multiplier[static_cast<std::size_t>(a.priority)];
  if (!config.tenant_output_multiplier.empty())
    avg *= config.tenant_output_multiplier[a.tenant %
                                           config.tenant_output_multiplier
                                               .size()];
  r.output_tokens = task_model.output_tokens(key, avg);
  r.predicted_output_tokens = predictor.predict_tokens(a.tenant);
  return r;
}

/// Join an engine completion from `replica` with its dispatch bookkeeping.
ServedRequest stitch(const llm::RequestResult& res, const InFlight& f,
                     std::size_t replica) {
  ServedRequest sr;
  sr.id = res.id;
  sr.tenant = f.arrival.tenant;
  sr.row = f.arrival.row;
  sr.replica = replica;
  sr.arrival_time = f.arrival.time;
  sr.dispatch_time = f.dispatch_time;
  sr.admit_time = res.admit_time;
  sr.first_token_time = res.first_token_time;
  sr.finish_time = res.finish_time;
  sr.prompt_tokens = res.prompt_tokens;
  sr.cached_tokens = res.cached_tokens;
  sr.output_tokens = res.output_tokens;
  sr.priority = f.arrival.priority;
  sr.preemptions = res.preemptions;
  sr.recomputed_tokens = res.recomputed_tokens;
  sr.session = f.arrival.session;
  sr.turn = f.arrival.turn;
  return sr;
}

/// The arrival stream as a fleet source: arrivals (the static stream plus
/// spawned follow-up turns) feed the scheduler, due windows are
/// materialized into prompts and dispatched into the fleet, and each
/// completion is stitched into the run result (possibly spawning the next
/// turn).
class StreamSource final : public FleetSource {
 public:
  StreamSource(const table::Table& t, const std::vector<Arrival>& arrivals,
               std::unordered_map<std::uint64_t, std::size_t> index_of,
               const OnlineConfig& config, OnlineScheduler& scheduler,
               ReplicaFleet& fleet, OnlineRunResult& out)
      : t_(t),
        arrivals_(arrivals),
        index_of_(std::move(index_of)),
        config_(config),
        scheduler_(scheduler),
        fleet_(fleet),
        out_(out),
        task_model_(config.model_profile),
        encoders_(config.prompt),
        predictor_(config.predictor),
        tracker_(config.sessions),
        feed_(arrivals) {
    // One SPJF knob: engine.spjf orders admission and, through the bound
    // predictor, dispatch within each planned window.
    if (config.engine.spjf) scheduler_.set_predictor(&predictor_);
    emitted_rows_.reserve(arrivals.size());
    emitted_fields_.reserve(arrivals.size());
  }

  bool pending() const override {
    return !feed_.exhausted() || scheduler_.buffered() > 0;
  }

  void release(double now) override {
    while (!feed_.exhausted() && feed_.next_time() <= now) {
      const Arrival a = feed_.pop();
      if (a.turn > 0 && config_.trace.sink)
        config_.trace.sink->emit({obs::EventKind::TurnSpawn,
                                  static_cast<std::uint8_t>(a.priority),
                                  obs::kGlobalTrack, a.time, a.id, a.session,
                                  a.turn, a.parent});
      scheduler_.push(a);
    }
    while (auto w = scheduler_.pop_ready(now)) dispatch(*w, now);
  }

  void complete(const llm::RequestResult& res,
                std::size_t replica) override {
    const InFlight& f = inflight_.at(res.id);
    ServedRequest sr = stitch(res, f, replica);
    if (sr.tenant >= out_.per_tenant.size())
      out_.per_tenant.resize(sr.tenant + 1, 0);
    ++out_.per_tenant[sr.tenant];
    out_.requests.push_back(sr);
    if (predictor_.enabled())
      predictor_.observe(f.arrival.tenant, res.output_tokens);
    if (auto child = tracker_.on_complete(f.arrival, res)) {
      index_of_.emplace(child->id, arrivals_.size() + spawned_.size());
      spawned_.push_back(*child);
      feed_.push_feedback(*child);
    }
    inflight_.erase(res.id);
  }

  double next_time() const override {
    return std::min(scheduler_.next_deadline(), feed_.next_time());
  }

  bool flush(double now) override {
    // Stream over, no deadline pending: drain the partial window.
    auto w = scheduler_.flush(now);
    if (w) dispatch(*w, now);
    return w.has_value();
  }

  /// Latency/per-class summaries, the emitted Ordering, and its PHC over
  /// the arrival-ordered rows (static stream, then spawned turns).
  void finalize() {
    out_.latency = summarize_latency(out_.requests, config_.ttft_slo_seconds);
    out_.per_class =
        summarize_by_class(out_.requests, config_.ttft_slo_seconds);
    out_.emitted = core::Ordering(std::move(emitted_rows_),
                                  std::move(emitted_fields_));
    std::vector<std::size_t> arrival_rows;
    arrival_rows.reserve(arrivals_.size() + spawned_.size());
    for (const Arrival& a : arrivals_) arrival_rows.push_back(a.row);
    for (const Arrival& a : spawned_) arrival_rows.push_back(a.row);
    out_.phc = core::phc(t_, arrival_rows, out_.emitted,
                         config_.scheduler.ggr.measure);
  }

 private:
  void dispatch(const Window& w, double now) {
    ++out_.windows;
    out_.solve_seconds += w.solve_seconds;
    for (std::size_t i = 0; i < w.arrivals.size(); ++i) {
      const Arrival& a = w.arrivals[i];
      const std::vector<std::size_t>& fo = w.field_orders[i];
      tokenizer::TokenSeq prompt =
          a.turn > 0 ? tracker_.make_child_prompt(a, t_, fo)
                     : encoders_.for_tenant(a.tenant).encode(t_, a.row, fo);
      llm::Request req = make_request(a, std::move(prompt), task_model_,
                                      config_, predictor_);
      tracker_.on_dispatch(a, req.prompt);
      fleet_.dispatch(std::move(req), a.tenant, now);
      inflight_.emplace(a.id, InFlight{a, w.planned_at});
      emitted_rows_.push_back(index_of_.at(a.id));
      emitted_fields_.push_back(fo);
    }
  }

  const table::Table& t_;
  const std::vector<Arrival>& arrivals_;
  std::unordered_map<std::uint64_t, std::size_t> index_of_;
  const OnlineConfig& config_;
  OnlineScheduler& scheduler_;
  ReplicaFleet& fleet_;
  OnlineRunResult& out_;
  const llm::TaskModel task_model_;
  EncoderMap encoders_;
  LengthPredictor predictor_;
  SessionTracker tracker_;
  ArrivalFeed feed_;
  std::vector<Arrival> spawned_;  // feedback arrivals, in spawn order
  std::unordered_map<std::uint64_t, InFlight> inflight_;
  std::vector<std::size_t> emitted_rows_;
  std::vector<std::vector<std::size_t>> emitted_fields_;
};

}  // namespace

void OnlineConfig::scale_kv_pool(double fraction) {
  engine.kv_pool_blocks_override =
      llm::scaled_kv_pool_blocks(model, gpu, engine.block_size, fraction);
}

FleetConfig OnlineConfig::fleet() const {
  FleetConfig f;
  f.engine = engine;
  f.model = model;
  f.gpu = gpu;
  f.n_replicas = n_replicas;
  f.router = router;
  f.elasticity = elasticity;
  return f;
}

OnlineRunResult run_online(const table::Table& t, const table::FdSet& fds,
                           const std::vector<Arrival>& arrivals,
                           const OnlineConfig& config) {
  if (config.n_replicas == 0)
    throw std::invalid_argument("run_online: n_replicas must be positive");

  OnlineRunResult out;
  out.replicas.resize(config.n_replicas);
  out.per_class = summarize_by_class({}, config.ttft_slo_seconds);
  if (arrivals.empty()) return out;

  validate_sessions(config, arrivals);
  auto index_of = index_arrivals(t, arrivals);

  OnlineScheduler scheduler(t, fds, config.scheduler);
  ReplicaFleet fleet(config.fleet());
  if (config.trace.sink) {
    fleet.set_trace(config.trace.sink);
    scheduler.set_trace(config.trace.sink);
  }
  StreamSource source(t, arrivals, std::move(index_of), config, scheduler,
                      fleet, out);
  fleet.run(source, 0.0, config.trace);

  out.replicas = fleet.replica_metrics();
  out.engine = aggregate_replica_engines(out.replicas);
  out.load_imbalance = fleet.load_imbalance();
  source.finalize();
  return out;
}

}  // namespace llmq::serve
