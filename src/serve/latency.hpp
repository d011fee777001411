#pragma once
// Serving-latency metrics for the online subsystem.
//
// The batch benchmarks report job time and cache hit rate; a serving
// endpoint is judged on per-request latency under load. Each served
// request carries its full timeline — arrival (workload), dispatch
// (scheduler window flush), admission/first token/finish (engine) — from
// which the summary derives the quantities serving papers report:
//
//   * TTFT          — first token minus arrival (what the user feels;
//                     includes scheduler buffering, queueing, prefill);
//   * queueing delay— admission minus arrival (scheduling + memory waits);
//   * end-to-end    — finish minus arrival;
//   * goodput       — completed requests per second whose TTFT met the
//                     SLO (equals throughput when no SLO is set).
//
// Percentiles use util::percentile's linear interpolation (selected with
// util::percentiles_select).

#include <cstdint>
#include <span>
#include <vector>

#include "llm/request.hpp"

namespace llmq::serve {

/// One request's stitched timeline. Invariant once served:
/// arrival <= dispatch <= admit <= first_token <= finish.
struct ServedRequest {
  std::uint64_t id = 0;
  std::uint32_t tenant = 0;
  std::size_t row = 0;
  std::size_t replica = 0;  // replica the request was routed to (0 if single)
  double arrival_time = 0.0;
  double dispatch_time = 0.0;
  double admit_time = 0.0;        // post-prefill
  double first_token_time = 0.0;
  double finish_time = 0.0;
  std::size_t prompt_tokens = 0;
  std::size_t cached_tokens = 0;  // prompt tokens served from the KV cache
  std::size_t output_tokens = 0;
  /// Served by the exact-duplicate memo (query-over-serving only): the
  /// completion was fanned out from an identical in-flight or finished
  /// invocation; no replica executed it and cached_tokens is 0 — memo
  /// savings are accounted in DedupStats, not as prefix hits.
  bool deduped = false;
  /// Scheduling class the request was served under.
  llm::PriorityClass priority = llm::PriorityClass::Standard;
  /// Times the engine preempted this request (0 = ran to completion
  /// uninterrupted) and the prefill tokens replayed across its resumes.
  std::size_t preemptions = 0;
  std::uint64_t recomputed_tokens = 0;
  /// Session linkage for multi-turn / agentic streams (see
  /// serve/workload.hpp). session == uint64 max (serve::kNoSession) and
  /// turn == 0 for classic one-shot arrivals.
  std::uint64_t session = static_cast<std::uint64_t>(-1);
  std::uint32_t turn = 0;

  double ttft() const { return first_token_time - arrival_time; }
  double queue_delay() const { return admit_time - arrival_time; }
  double e2e_latency() const { return finish_time - arrival_time; }
  /// Mean inter-token latency over this request's decode: the gap between
  /// consecutive output tokens, averaged. Undefined (0) for single-token
  /// completions — they have no inter-token gap. Monolithic admission
  /// prefill inflates this for every request that was mid-decode when a
  /// long prompt arrived; chunked prefill bounds it.
  double mean_itl() const {
    return output_tokens > 1 ? (finish_time - first_token_time) /
                                   static_cast<double>(output_tokens - 1)
                             : 0.0;
  }
};

struct LatencySummary {
  std::size_t count = 0;
  double mean_ttft = 0.0;
  double p50_ttft = 0.0;
  double p90_ttft = 0.0;
  double p95_ttft = 0.0;
  double p99_ttft = 0.0;
  double mean_queue_delay = 0.0;
  double p90_queue_delay = 0.0;
  double p99_queue_delay = 0.0;
  /// Inter-token latency percentiles over requests' mean ITL (requests
  /// with >= 2 output tokens; zeros when none qualify). The serving-side
  /// view of decode stalls: a long admission prefill freezes every
  /// in-flight decode, which surfaces here long before it moves TTFT.
  double mean_itl = 0.0;
  double p50_itl = 0.0;
  double p90_itl = 0.0;
  double p99_itl = 0.0;
  double p50_e2e = 0.0;
  double p99_e2e = 0.0;
  double makespan = 0.0;         // last finish - first arrival
  double throughput_rps = 0.0;   // completed / makespan
  double goodput_rps = 0.0;      // completed within the TTFT SLO / makespan
  /// The SLO the summary was computed with, echoed for reporting. Any
  /// value <= 0 means "no SLO": every completed request counts as good, so
  /// goodput_rps == throughput_rps — the sentinel disables the cut, it
  /// does not zero the goodput.
  double ttft_slo = 0.0;
};

/// Aggregate a set of completed requests. `ttft_slo_seconds <= 0` disables
/// the SLO cut (goodput == throughput). Empty input yields a zeroed
/// summary; a zero makespan (e.g. all timestamps identical) reports zero
/// throughput/goodput rather than dividing by zero.
LatencySummary summarize_latency(const std::vector<ServedRequest>& requests,
                                 double ttft_slo_seconds = 0.0);

/// The same summary over the requests at positions `subset` (in that
/// order) — a slice of a run without copying it.
LatencySummary summarize_latency(const std::vector<ServedRequest>& requests,
                                 std::span<const std::size_t> subset,
                                 double ttft_slo_seconds = 0.0);

/// One priority class's slice of a run — the headline breakdown for
/// preemptive scheduling: per-class goodput is what an operator actually
/// sells (interactive TTFT under SLO, batch completion volume), where
/// aggregate latency would average the classes into meaninglessness.
struct PriorityClassMetrics {
  llm::PriorityClass priority = llm::PriorityClass::Standard;
  std::size_t requests = 0;
  std::size_t preemptions = 0;  // preempt events suffered by this class
  std::uint64_t recomputed_tokens = 0;
  LatencySummary latency;  // over this class's completions only
};

/// Per-class breakdown, always kNumPriorityClasses entries in class order
/// (Interactive, Standard, Batch); classes with no traffic have zeroed
/// summaries.
std::vector<PriorityClassMetrics> summarize_by_class(
    const std::vector<ServedRequest>& requests, double ttft_slo_seconds = 0.0);

}  // namespace llmq::serve
