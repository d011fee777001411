#include "serve/latency.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace llmq::serve {
namespace {

ServedRequest req(double arrival, double admit, double first_token,
                  double finish) {
  ServedRequest r;
  r.arrival_time = arrival;
  r.dispatch_time = arrival;
  r.admit_time = admit;
  r.first_token_time = first_token;
  r.finish_time = finish;
  return r;
}

TEST(Latency, EmptyInputYieldsZeros) {
  const LatencySummary s = summarize_latency({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.p99_ttft, 0.0);
  EXPECT_DOUBLE_EQ(s.throughput_rps, 0.0);
}

TEST(Latency, DerivedQuantities) {
  const ServedRequest r = req(1.0, 1.5, 1.7, 2.5);
  EXPECT_DOUBLE_EQ(r.queue_delay(), 0.5);
  EXPECT_DOUBLE_EQ(r.ttft(), 0.7);
  EXPECT_DOUBLE_EQ(r.e2e_latency(), 1.5);
}

TEST(Latency, SummaryStatistics) {
  std::vector<ServedRequest> rs;
  // TTFTs 0.1, 0.2, ..., 1.0 over arrivals at t=0.
  for (int i = 1; i <= 10; ++i)
    rs.push_back(req(0.0, 0.05, 0.1 * i, 0.1 * i + 1.0));
  const LatencySummary s = summarize_latency(rs);
  EXPECT_EQ(s.count, 10u);
  EXPECT_NEAR(s.mean_ttft, 0.55, 1e-9);
  EXPECT_NEAR(s.p50_ttft, 0.55, 1e-9);
  // Linear interpolation: rank (10-1)*0.9 = 8.1 between 0.9 and 1.0.
  EXPECT_NEAR(s.p90_ttft, 0.91, 1e-9);
  EXPECT_GT(s.p99_ttft, 0.9);
  EXPECT_LE(s.p99_ttft, 1.0 + 1e-9);
  EXPECT_LE(s.p50_ttft, s.p90_ttft);
  EXPECT_LE(s.p90_ttft, s.p95_ttft);
  EXPECT_LE(s.p95_ttft, s.p99_ttft);
  EXPECT_NEAR(s.makespan, 2.0, 1e-9);  // first arrival 0, last finish 2.0
  EXPECT_NEAR(s.throughput_rps, 5.0, 1e-9);
  EXPECT_DOUBLE_EQ(s.goodput_rps, s.throughput_rps);  // no SLO set
}

TEST(Latency, SingleRequest) {
  // Percentiles of one sample are that sample; throughput is 1/makespan.
  const LatencySummary s = summarize_latency({req(1.0, 1.2, 1.4, 3.0)});
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean_ttft, 0.4);
  EXPECT_DOUBLE_EQ(s.p50_ttft, 0.4);
  EXPECT_DOUBLE_EQ(s.p90_ttft, 0.4);
  EXPECT_DOUBLE_EQ(s.p99_ttft, 0.4);
  EXPECT_DOUBLE_EQ(s.mean_queue_delay, 0.2);
  EXPECT_DOUBLE_EQ(s.p90_queue_delay, 0.2);
  EXPECT_DOUBLE_EQ(s.p50_e2e, 2.0);
  EXPECT_DOUBLE_EQ(s.p99_e2e, 2.0);
  EXPECT_DOUBLE_EQ(s.makespan, 2.0);
  EXPECT_DOUBLE_EQ(s.throughput_rps, 0.5);
  EXPECT_DOUBLE_EQ(s.goodput_rps, 0.5);
}

TEST(Latency, AllIdenticalTimestampsYieldZeroMakespanNotNan) {
  // Degenerate but reachable (e.g. zero-latency stubs in tests): every
  // timeline point equal. Zero makespan must report zero throughput and
  // goodput, not a division by zero.
  std::vector<ServedRequest> rs(3, req(5.0, 5.0, 5.0, 5.0));
  const LatencySummary s = summarize_latency(rs, 1.0);
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.mean_ttft, 0.0);
  EXPECT_DOUBLE_EQ(s.p99_e2e, 0.0);
  EXPECT_DOUBLE_EQ(s.makespan, 0.0);
  EXPECT_DOUBLE_EQ(s.throughput_rps, 0.0);
  EXPECT_DOUBLE_EQ(s.goodput_rps, 0.0);
}

TEST(Latency, P90ItlExcludesSingleTokenCompletions) {
  // Single-token completions have no inter-token gap: a run of only such
  // requests reports zeroed ITL percentiles, and mixed runs compute the
  // percentiles over the multi-token requests alone.
  std::vector<ServedRequest> single(3, req(0.0, 0.1, 0.2, 0.2));
  for (auto& r : single) r.output_tokens = 1;
  const LatencySummary none = summarize_latency(single);
  EXPECT_DOUBLE_EQ(none.mean_itl, 0.0);
  EXPECT_DOUBLE_EQ(none.p90_itl, 0.0);
  EXPECT_DOUBLE_EQ(none.p99_itl, 0.0);

  std::vector<ServedRequest> rs = single;
  // Mean ITLs 0.01, 0.02, ..., 0.10 (11 output tokens = 10 gaps).
  for (int i = 1; i <= 10; ++i) {
    ServedRequest r = req(0.0, 0.1, 0.2, 0.2 + 0.1 * i);
    r.output_tokens = 11;
    rs.push_back(r);
  }
  const LatencySummary s = summarize_latency(rs);
  EXPECT_NEAR(s.mean_itl, 0.055, 1e-9);
  EXPECT_NEAR(s.p90_itl, 0.091, 1e-9);  // rank 8.1 between 0.09 and 0.10
  EXPECT_LE(s.p50_itl, s.p90_itl);
  EXPECT_LE(s.p90_itl, s.p99_itl);
}

TEST(Latency, NonPositiveSloDisablesTheCut) {
  // ttft_slo <= 0 means "no SLO": goodput equals throughput (every request
  // counts as good), never zero goodput. Documented in latency.hpp.
  std::vector<ServedRequest> rs;
  for (int i = 1; i <= 4; ++i) rs.push_back(req(0.0, 0.1, 10.0 * i, 50.0));
  for (const double slo : {0.0, -3.0}) {
    const LatencySummary s = summarize_latency(rs, slo);
    EXPECT_DOUBLE_EQ(s.ttft_slo, slo);
    EXPECT_GT(s.throughput_rps, 0.0);
    EXPECT_DOUBLE_EQ(s.goodput_rps, s.throughput_rps);
  }
  // Sanity: a tiny positive SLO does cut.
  const LatencySummary cut = summarize_latency(rs, 1e-6);
  EXPECT_DOUBLE_EQ(cut.goodput_rps, 0.0);
}

// The pre-optimization summarize_latency, kept verbatim as the reference:
// ttft() re-derived per consumer, means over the unsorted samples, and
// every percentile through util::percentile (which copies and sorts its
// input each call). The production path computes each quantity once and
// selects only the order statistics each percentile reads; this pins that
// the rewrite changed the work, not one bit of the output.
LatencySummary summarize_latency_reference(
    const std::vector<ServedRequest>& requests, double ttft_slo_seconds) {
  LatencySummary s;
  s.ttft_slo = ttft_slo_seconds;
  if (requests.empty()) return s;
  s.count = requests.size();
  std::vector<double> ttft, queue, e2e, itl;
  double first_arrival = requests.front().arrival_time;
  double last_finish = requests.front().finish_time;
  std::size_t within_slo = 0;
  for (const auto& r : requests) {
    ttft.push_back(r.ttft());
    queue.push_back(r.queue_delay());
    e2e.push_back(r.e2e_latency());
    if (r.output_tokens > 1) itl.push_back(r.mean_itl());
    first_arrival = std::min(first_arrival, r.arrival_time);
    last_finish = std::max(last_finish, r.finish_time);
    if (ttft_slo_seconds <= 0.0 || r.ttft() <= ttft_slo_seconds)
      ++within_slo;
  }
  s.mean_ttft = util::mean(ttft);
  s.p50_ttft = util::percentile(ttft, 50.0);
  s.p90_ttft = util::percentile(ttft, 90.0);
  s.p95_ttft = util::percentile(ttft, 95.0);
  s.p99_ttft = util::percentile(ttft, 99.0);
  s.mean_queue_delay = util::mean(queue);
  s.p90_queue_delay = util::percentile(queue, 90.0);
  s.p99_queue_delay = util::percentile(queue, 99.0);
  if (!itl.empty()) {
    s.mean_itl = util::mean(itl);
    s.p50_itl = util::percentile(itl, 50.0);
    s.p90_itl = util::percentile(itl, 90.0);
    s.p99_itl = util::percentile(itl, 99.0);
  }
  s.p50_e2e = util::percentile(e2e, 50.0);
  s.p99_e2e = util::percentile(e2e, 99.0);
  s.makespan = last_finish - first_arrival;
  if (s.makespan > 0.0) {
    s.throughput_rps = static_cast<double>(s.count) / s.makespan;
    s.goodput_rps = static_cast<double>(within_slo) / s.makespan;
  }
  return s;
}

void expect_bit_identical(const LatencySummary& a, const LatencySummary& b) {
  EXPECT_EQ(a.count, b.count);
  // operator== on double: exact bit-level agreement, not ULP tolerance —
  // the point is that downstream golden JSON bytes cannot move.
  EXPECT_EQ(a.mean_ttft, b.mean_ttft);
  EXPECT_EQ(a.p50_ttft, b.p50_ttft);
  EXPECT_EQ(a.p90_ttft, b.p90_ttft);
  EXPECT_EQ(a.p95_ttft, b.p95_ttft);
  EXPECT_EQ(a.p99_ttft, b.p99_ttft);
  EXPECT_EQ(a.mean_queue_delay, b.mean_queue_delay);
  EXPECT_EQ(a.p90_queue_delay, b.p90_queue_delay);
  EXPECT_EQ(a.p99_queue_delay, b.p99_queue_delay);
  EXPECT_EQ(a.mean_itl, b.mean_itl);
  EXPECT_EQ(a.p50_itl, b.p50_itl);
  EXPECT_EQ(a.p90_itl, b.p90_itl);
  EXPECT_EQ(a.p99_itl, b.p99_itl);
  EXPECT_EQ(a.p50_e2e, b.p50_e2e);
  EXPECT_EQ(a.p99_e2e, b.p99_e2e);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.throughput_rps, b.throughput_rps);
  EXPECT_EQ(a.goodput_rps, b.goodput_rps);
  EXPECT_EQ(a.ttft_slo, b.ttft_slo);
}

TEST(Latency, SingleSortRewriteIsBitIdenticalToReference) {
  util::Rng rng(4242);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.next_range(0, 200));
    std::vector<ServedRequest> rs;
    for (std::size_t i = 0; i < n; ++i) {
      const double arrival = rng.next_double() * 100.0;
      const double admit = arrival + rng.next_double();
      const double first = admit + rng.next_double() * 0.5;
      ServedRequest r = req(arrival, admit, first,
                            first + rng.next_double() * 10.0);
      // Mix of single-token (ITL-excluded) and multi-token completions,
      // including duplicate timestamps (ties stress sort stability).
      r.output_tokens = static_cast<std::size_t>(rng.next_range(1, 40));
      if (rng.next_below(8) == 0 && !rs.empty()) {
        r.first_token_time = rs.back().first_token_time;
        r.arrival_time = rs.back().arrival_time;
      }
      rs.push_back(r);
    }
    const double slo = trial % 3 == 0   ? 0.0
                       : trial % 3 == 1 ? rng.next_double()
                                        : -1.0;
    expect_bit_identical(summarize_latency(rs, slo),
                         summarize_latency_reference(rs, slo));
  }
}

/// Random requests whose timestamps come from a small grid, so every
/// sample is full of ties; priorities and tenants are random too.
std::vector<ServedRequest> tied_requests(util::Rng& rng, std::size_t n) {
  std::vector<ServedRequest> rs;
  for (std::size_t i = 0; i < n; ++i) {
    const double arrival = 0.25 * static_cast<double>(rng.next_below(6));
    const double admit = arrival + 0.5 * static_cast<double>(rng.next_below(3));
    const double first = admit + 0.125 * static_cast<double>(rng.next_below(4));
    const double finish = first + static_cast<double>(rng.next_below(5));
    ServedRequest r = req(arrival, admit, first, finish);
    r.output_tokens = static_cast<std::size_t>(rng.next_range(1, 4));
    r.priority = static_cast<llm::PriorityClass>(
        rng.next_below(llm::kNumPriorityClasses));
    r.tenant = static_cast<std::uint32_t>(rng.next_below(3));
    r.preemptions = rng.next_below(3);
    r.recomputed_tokens = rng.next_below(100);
    rs.push_back(r);
  }
  return rs;
}

TEST(Latency, PercentileSelectionMatchesSortedReference) {
  util::Rng rng(99);
  const std::vector<double> ps = {0.0, 0.5, 25.0, 50.0, 50.0,
                                  90.0, 95.0, 99.0, 99.9, 100.0};
  for (int trial = 0; trial < 400; ++trial) {
    // Sizes 0, 1 and 2 every few trials, otherwise up to 300.
    const std::size_t n = trial % 4 == 0
                              ? static_cast<std::size_t>(trial / 4 % 3)
                              : rng.next_below(300);
    std::vector<double> xs(n);
    const bool tied = trial % 2 == 0;
    for (double& x : xs)
      x = tied ? static_cast<double>(rng.next_below(4)) : rng.next_double();
    std::vector<double> sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    std::vector<double> got(ps.size());
    util::percentiles_select(xs, ps, got);
    for (std::size_t i = 0; i < ps.size(); ++i)
      EXPECT_EQ(got[i], util::percentile_sorted(sorted, ps[i]))
          << "n " << n << " p " << ps[i];
  }
}

TEST(Latency, SelectionSummariesAreBitIdenticalOnTiesAndTinySamples) {
  util::Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n =
        trial < 30 ? static_cast<std::size_t>(trial % 3) : rng.next_below(250);
    const std::vector<ServedRequest> rs = tied_requests(rng, n);
    const double slo = trial % 2 == 0 ? 0.0 : 0.5;
    expect_bit_identical(summarize_latency(rs, slo),
                         summarize_latency_reference(rs, slo));
  }
}

TEST(Latency, ClassAndSubsetSummariesMatchCopiedSlices) {
  util::Rng rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n =
        trial < 9 ? static_cast<std::size_t>(trial % 3) : rng.next_below(200);
    const std::vector<ServedRequest> rs = tied_requests(rng, n);
    const double slo = trial % 2 == 0 ? 0.0 : 0.4;

    // summarize_by_class against copying each class's requests out.
    const std::vector<PriorityClassMetrics> by_class =
        summarize_by_class(rs, slo);
    ASSERT_EQ(by_class.size(), llm::kNumPriorityClasses);
    for (std::size_t c = 0; c < llm::kNumPriorityClasses; ++c) {
      std::vector<ServedRequest> slice;
      std::size_t preemptions = 0;
      std::uint64_t recomputed = 0;
      for (const ServedRequest& r : rs) {
        if (static_cast<std::size_t>(r.priority) != c) continue;
        slice.push_back(r);
        preemptions += r.preemptions;
        recomputed += r.recomputed_tokens;
      }
      EXPECT_EQ(by_class[c].requests, slice.size());
      EXPECT_EQ(by_class[c].preemptions, preemptions);
      EXPECT_EQ(by_class[c].recomputed_tokens, recomputed);
      expect_bit_identical(by_class[c].latency,
                           summarize_latency_reference(slice, slo));
    }

    // The subset overload (per-lane summaries) against a copied slice.
    std::vector<std::size_t> subset;
    std::vector<ServedRequest> slice;
    for (std::size_t i = 0; i < rs.size(); ++i) {
      if (rs[i].tenant != 1) continue;
      subset.push_back(i);
      slice.push_back(rs[i]);
    }
    expect_bit_identical(summarize_latency(rs, subset, slo),
                         summarize_latency_reference(slice, slo));
  }
}

TEST(Latency, GoodputCountsOnlyWithinSlo) {
  std::vector<ServedRequest> rs;
  for (int i = 1; i <= 10; ++i)
    rs.push_back(req(0.0, 0.05, 0.1 * i, 2.0));
  // SLO at 0.55s: TTFTs 0.1..0.5 qualify (5 of 10).
  const LatencySummary s = summarize_latency(rs, 0.55);
  EXPECT_DOUBLE_EQ(s.ttft_slo, 0.55);
  EXPECT_NEAR(s.goodput_rps, 0.5 * s.throughput_rps, 1e-9);
}

}  // namespace
}  // namespace llmq::serve
