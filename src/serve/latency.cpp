#include "serve/latency.hpp"

#include <algorithm>
#include <initializer_list>
#include <span>

#include "util/stats.hpp"

namespace llmq::serve {

namespace {

/// The summary over requests at(0), ..., at(n - 1), in that (completion)
/// order.
template <typename At>
LatencySummary summarize(std::size_t n, At&& at, double ttft_slo_seconds) {
  LatencySummary s;
  s.ttft_slo = ttft_slo_seconds;
  if (n == 0) return s;
  s.count = n;

  std::vector<double> ttft, queue, e2e, itl;
  ttft.reserve(n);
  queue.reserve(n);
  e2e.reserve(n);
  itl.reserve(n);
  double first_arrival = at(0).arrival_time;
  double last_finish = at(0).finish_time;
  std::size_t within_slo = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const ServedRequest& r = at(i);
    const double t = r.ttft();  // derive once; it feeds three consumers
    ttft.push_back(t);
    queue.push_back(r.queue_delay());
    e2e.push_back(r.e2e_latency());
    // Single-token completions have no inter-token gap; keep them out of
    // the ITL sample rather than diluting it with zeros.
    if (r.output_tokens > 1) itl.push_back(r.mean_itl());
    first_arrival = std::min(first_arrival, r.arrival_time);
    last_finish = std::max(last_finish, r.finish_time);
    if (ttft_slo_seconds <= 0.0 || t <= ttft_slo_seconds) ++within_slo;
  }

  // Means first, summed in completion order. Then each sample gives up
  // only the order statistics its percentiles read (selection, not a
  // sort) — the same values percentile_sorted reads off a sorted copy.
  s.mean_ttft = util::mean(ttft);
  s.mean_queue_delay = util::mean(queue);
  if (!itl.empty()) s.mean_itl = util::mean(itl);
  const auto pick = [](std::vector<double>& xs,
                       std::initializer_list<double> ps,
                       std::initializer_list<double*> outs) {
    double vals[4];
    util::percentiles_select(xs, std::span<const double>(ps.begin(), ps.size()),
                             std::span<double>(vals, ps.size()));
    std::size_t i = 0;
    for (double* o : outs) *o = vals[i++];
  };
  pick(ttft, {50.0, 90.0, 95.0, 99.0},
       {&s.p50_ttft, &s.p90_ttft, &s.p95_ttft, &s.p99_ttft});
  pick(queue, {90.0, 99.0}, {&s.p90_queue_delay, &s.p99_queue_delay});
  if (!itl.empty())
    pick(itl, {50.0, 90.0, 99.0}, {&s.p50_itl, &s.p90_itl, &s.p99_itl});
  pick(e2e, {50.0, 99.0}, {&s.p50_e2e, &s.p99_e2e});
  s.makespan = last_finish - first_arrival;
  if (s.makespan > 0.0) {
    s.throughput_rps = static_cast<double>(s.count) / s.makespan;
    s.goodput_rps = static_cast<double>(within_slo) / s.makespan;
  }
  return s;
}

}  // namespace

LatencySummary summarize_latency(const std::vector<ServedRequest>& requests,
                                 double ttft_slo_seconds) {
  return summarize(
      requests.size(),
      [&](std::size_t i) -> const ServedRequest& { return requests[i]; },
      ttft_slo_seconds);
}

LatencySummary summarize_latency(const std::vector<ServedRequest>& requests,
                                 std::span<const std::size_t> subset,
                                 double ttft_slo_seconds) {
  return summarize(
      subset.size(),
      [&](std::size_t i) -> const ServedRequest& {
        return requests[subset[i]];
      },
      ttft_slo_seconds);
}

std::vector<PriorityClassMetrics> summarize_by_class(
    const std::vector<ServedRequest>& requests, double ttft_slo_seconds) {
  std::vector<std::vector<std::size_t>> by_class(llm::kNumPriorityClasses);
  for (std::size_t i = 0; i < requests.size(); ++i)
    by_class[static_cast<std::size_t>(requests[i].priority)].push_back(i);

  std::vector<PriorityClassMetrics> out(llm::kNumPriorityClasses);
  for (std::size_t c = 0; c < llm::kNumPriorityClasses; ++c) {
    PriorityClassMetrics& m = out[c];
    m.priority = static_cast<llm::PriorityClass>(c);
    m.requests = by_class[c].size();
    for (const std::size_t i : by_class[c]) {
      m.preemptions += requests[i].preemptions;
      m.recomputed_tokens += requests[i].recomputed_tokens;
    }
    m.latency = summarize_latency(requests, by_class[c], ttft_slo_seconds);
  }
  return out;
}

}  // namespace llmq::serve
