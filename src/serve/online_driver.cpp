#include "serve/online_driver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/phc.hpp"

namespace llmq::serve::detail {

namespace {

/// Heap comparator: std::push_heap builds a max-heap, so "later" on top
/// of the comparison gives a min-heap on (time, id).
bool arrives_later(const Arrival& x, const Arrival& y) {
  if (x.time != y.time) return x.time > y.time;
  return x.id > y.id;
}

}  // namespace

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

double ArrivalFeed::next_time() const {
  double t = std::numeric_limits<double>::infinity();
  if (next_ < statics_->size()) t = (*statics_)[next_].time;
  if (!heap_.empty()) t = std::min(t, heap_.front().time);
  return t;
}

Arrival ArrivalFeed::pop() {
  const bool have_static = next_ < statics_->size();
  if (have_static &&
      (heap_.empty() || !arrives_later((*statics_)[next_], heap_.front())))
    return (*statics_)[next_++];
  std::pop_heap(heap_.begin(), heap_.end(), arrives_later);
  Arrival a = heap_.back();
  heap_.pop_back();
  return a;
}

void ArrivalFeed::push_feedback(const Arrival& a) {
  heap_.push_back(a);
  std::push_heap(heap_.begin(), heap_.end(), arrives_later);
}

void SessionTracker::on_dispatch(const Arrival& a,
                                 const tokenizer::TokenSeq& prompt) {
  if (!will_spawn(a)) return;
  const FollowUpPlan& fo = sessions_->plans[a.session].follow_ups[a.turn];
  ctx_.emplace(a.id, SpawnCtx{prompt, fo.gap_seconds});
}

std::optional<Arrival> SessionTracker::on_complete(
    const Arrival& a, const llm::RequestResult& res) {
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

tokenizer::TokenSeq SessionTracker::make_child_prompt(
    const Arrival& a, const table::Table& t,
    std::span<const std::size_t> fo) {
  const auto it = child_prefix_.find(a.id);
  if (it == child_prefix_.end())
    throw std::logic_error("SessionTracker: follow-up dispatch without spawn");
  tokenizer::TokenSeq prompt = std::move(it->second);
  child_prefix_.erase(it);
  // One concatenated string through one encode_append call, so a test can
  // reproduce the turn's added length as count(label + rendered row).
  const std::string tail = session_segment_label(sessions_->kind, a.turn) +
                           query::render_row_json(t, a.row, fo);
  tokenizer::global_tokenizer().encode_append(tail, prompt);
  return prompt;
}

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

llm::Request make_request(const Arrival& a, tokenizer::TokenSeq prompt,
                          const llm::TaskModel& task_model,
                          const OnlineConfig& config,
                          const LengthPredictor* predictor) {
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
  if (predictor != nullptr) {
    r.predicted_output_tokens = predictor->predict_tokens(a.tenant);
  }
  return r;
}

ServedRequest stitch(const llm::RequestResult& res, const InFlight& f) {
  ServedRequest sr;
  sr.id = res.id;
  sr.tenant = f.arrival.tenant;
  sr.row = f.arrival.row;
  sr.replica = f.replica;
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

void count_tenant(std::vector<std::size_t>& per_tenant, std::uint32_t tenant) {
  if (tenant >= per_tenant.size()) per_tenant.resize(tenant + 1, 0);
  ++per_tenant[tenant];
}

void finalize_emitted(OnlineRunResult& out, const table::Table& t,
                      const std::vector<Arrival>& arrivals,
                      const OnlineConfig& config,
                      std::vector<std::size_t> emitted_rows,
                      std::vector<std::vector<std::size_t>> emitted_fields) {
  out.latency = summarize_latency(out.requests, config.ttft_slo_seconds);
  out.per_class = summarize_by_class(out.requests, config.ttft_slo_seconds);
  out.emitted =
      core::Ordering(std::move(emitted_rows), std::move(emitted_fields));
  std::vector<std::size_t> arrival_rows;
  arrival_rows.reserve(arrivals.size());
  for (const Arrival& a : arrivals) arrival_rows.push_back(a.row);
  out.phc = core::phc(t.take_rows(arrival_rows), out.emitted,
                      config.scheduler.ggr.measure);
}

}  // namespace llmq::serve::detail
