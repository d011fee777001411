#include "serve/workload.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "query/prompt.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace llmq::serve {

namespace {

/// Advance `t` past the next arrival of an inhomogeneous Poisson process
/// with the configured piecewise-constant rate: draw a unit-rate
/// exponential and consume integrated intensity segment by segment.
/// Segments are tracked with an integer cycle counter and entered by
/// assignment (t = segment end), never by accumulation — `t += span` stops
/// making progress once span drops below t's ulp near a phase boundary.
double next_arrival_time(const WorkloadOptions& o, double t, util::Rng& rng) {
  double needed = -std::log(1.0 - rng.next_double());  // Exp(1)
  if (o.process == ArrivalProcess::Poisson) return t + needed / o.arrival_rate;

  const double cycle = std::max(1e-9, o.cycle_seconds);
  const double frac = std::clamp(o.burst_fraction, 0.0, 1.0);
  const double on_rate = o.arrival_rate * o.burst_multiplier;
  // Off-phase rate chosen so the cycle mean equals arrival_rate (floored
  // at 0 when burst_fraction * burst_multiplier exceeds 1).
  const double off_rate =
      frac >= 1.0 ? on_rate
                  : std::max(0.0, o.arrival_rate *
                                      (1.0 - frac * o.burst_multiplier) /
                                      (1.0 - frac));
  if (on_rate <= 0.0 && off_rate <= 0.0)
    throw std::invalid_argument("workload: bursty process has zero rate");

  double k = std::floor(t / cycle);  // current cycle index
  for (;;) {
    const double on_end = (k + frac) * cycle;
    const double cycle_end = (k + 1.0) * cycle;
    const bool in_on = t < on_end;
    const double seg_end = in_on ? on_end : cycle_end;
    const double r = in_on ? on_rate : off_rate;
    if (r > 0.0) {
      const double available = (seg_end - t) * r;
      if (available >= needed) return t + needed / r;
      needed -= available;
    }
    t = seg_end;
    if (!in_on) k += 1.0;
  }
}

}  // namespace

std::vector<Arrival> generate_arrivals(std::size_t n_rows,
                                       const WorkloadOptions& options) {
  if (n_rows == 0) return {};
  if (options.arrival_rate <= 0.0)
    throw std::invalid_argument("workload: arrival_rate must be > 0");
  const std::size_t n =
      options.n_requests ? options.n_requests : n_rows;

  util::Rng rng(options.seed);
  util::Rng tenant_rng = rng.fork(1);
  util::Rng time_rng = rng.fork(2);

  std::vector<std::size_t> visit(n_rows);
  std::iota(visit.begin(), visit.end(), 0);
  if (options.shuffle_rows) rng.shuffle(visit);

  const std::size_t n_tenants = std::max<std::size_t>(1, options.n_tenants);
  const util::Zipf zipf(n_tenants, options.tenant_skew);

  std::vector<Arrival> out;
  out.reserve(n);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t = next_arrival_time(options, t, time_rng);
    Arrival a;
    a.id = i;
    a.time = t;
    a.row = visit[i % n_rows];
    a.tenant = n_tenants == 1
                   ? 0
                   : static_cast<std::uint32_t>(zipf.sample(tenant_rng));
    if (!options.tenant_classes.empty())
      a.priority = options.tenant_classes[a.tenant %
                                          options.tenant_classes.size()];
    out.push_back(a);
  }
  return out;
}

SessionWorkload generate_sessions(std::size_t n_rows,
                                  const WorkloadOptions& options,
                                  const SessionOptions& sessions) {
  if (sessions.turns == 0)
    throw std::invalid_argument("sessions: turns must be >= 1");
  if (sessions.mean_gap_seconds <= 0.0)
    throw std::invalid_argument("sessions: mean_gap_seconds must be > 0");

  SessionWorkload out;
  out.kind = sessions.kind;
  out.roots = generate_arrivals(n_rows, options);
  for (Arrival& a : out.roots) {
    a.session = a.id;  // roots get ids 0..n-1 in time order
    a.turn = 0;
    a.parent = kNoSession;
  }

  // Follow-up rows/gaps come from fork(3) of a fresh seed rng: forks 1/2
  // and the shuffle consumption inside generate_arrivals never see it,
  // so the roots stay bit-identical to the one-shot stream.
  util::Rng base(options.seed);
  util::Rng follow_rng = base.fork(3);
  out.plans.resize(out.roots.size());
  for (std::size_t s = 0; s < out.roots.size(); ++s) {
    SessionPlan& plan = out.plans[s];
    plan.follow_ups.reserve(sessions.turns - 1);
    for (std::size_t k = 1; k < sessions.turns; ++k) {
      FollowUpPlan fo;
      fo.row = sessions.kind == SessionKind::Agent
                   ? out.roots[s].row
                   : follow_rng.next_below(n_rows);
      fo.gap_seconds =
          std::max(1e-3, -sessions.mean_gap_seconds *
                             std::log(1.0 - follow_rng.next_double()));
      plan.follow_ups.push_back(fo);
    }
  }
  return out;
}

tokenizer::TokenSeq synth_output_tokens(std::uint64_t session,
                                        std::uint32_t turn,
                                        std::size_t len) {
  tokenizer::TokenSeq out;
  out.reserve(len);
  const std::uint64_t base =
      util::hash_combine(util::hash64(session + 1),
                         util::hash64(static_cast<std::uint64_t>(turn)));
  for (std::size_t i = 0; i < len; ++i) {
    const std::uint64_t h = util::hash_combine(base, util::hash64(i));
    out.push_back(static_cast<tokenizer::TokenId>(h));
  }
  return out;
}

std::string session_segment_label(SessionKind kind, std::uint32_t turn) {
  return kind == SessionKind::Agent
             ? "\n[tool result " + std::to_string(turn) + "]\n"
             : "\n[user turn " + std::to_string(turn) + "]\n";
}

void SessionTurnEncoder::append(std::uint32_t turn, const table::Table& t,
                                std::size_t row,
                                std::span<const std::size_t> field_order,
                                tokenizer::TokenSeq& out) {
  if (turn >= label_open_.size()) label_open_.resize(turn + 1);
  tokenizer::TokenSeq& head = label_open_[turn];
  if (head.empty())
    head = tokenizer::global_tokenizer().encode(
        session_segment_label(kind_, turn) + "{");
  out.insert(out.end(), head.begin(), head.end());
  query::append_row_body(t, row, field_order, out);
}

std::vector<llm::PriorityClass> classes_for_tenants(
    const std::vector<std::uint32_t>& tenants,
    const std::vector<llm::PriorityClass>& tenant_classes) {
  std::vector<llm::PriorityClass> out;
  if (tenant_classes.empty()) return out;
  out.reserve(tenants.size());
  for (const std::uint32_t t : tenants)
    out.push_back(tenant_classes[t % tenant_classes.size()]);
  return out;
}

std::vector<Arrival> arrivals_from_trace(
    const std::vector<double>& times, const std::vector<std::size_t>& rows,
    const std::vector<std::uint32_t>& tenants,
    const std::vector<llm::PriorityClass>& classes) {
  if (times.size() != rows.size())
    throw std::invalid_argument("trace: times/rows length mismatch");
  if (!tenants.empty() && tenants.size() != times.size())
    throw std::invalid_argument("trace: tenants length mismatch");
  if (!classes.empty() && classes.size() != times.size())
    throw std::invalid_argument(
        "trace: classes must have one entry per arrival (expand a "
        "tenant mapping with classes_for_tenants)");
  std::vector<Arrival> out;
  out.reserve(times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    // NaN compares false against everything, so it would slip past the
    // ordering check below.
    if (!std::isfinite(times[i]))
      throw std::invalid_argument("trace: timestamps must be finite");
    if (i > 0 && times[i] < times[i - 1])
      throw std::invalid_argument("trace: timestamps must be non-decreasing");
    Arrival a;
    a.id = i;
    a.time = times[i];
    a.row = rows[i];
    a.tenant = tenants.empty() ? 0 : tenants[i];
    if (!classes.empty()) a.priority = classes[i];
    out.push_back(a);
  }
  return out;
}

}  // namespace llmq::serve
