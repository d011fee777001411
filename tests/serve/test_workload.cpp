#include "serve/workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

namespace llmq::serve {
namespace {

TEST(Workload, DeterministicAndTimeSorted) {
  WorkloadOptions o;
  o.arrival_rate = 25.0;
  o.n_requests = 300;
  o.seed = 11;
  const auto a = generate_arrivals(100, o);
  const auto b = generate_arrivals(100, o);
  ASSERT_EQ(a.size(), 300u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_DOUBLE_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].row, b[i].row);
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_EQ(a[i].id, i);  // ids follow time order
    if (i > 0) {
      EXPECT_GE(a[i].time, a[i - 1].time);
    }
    EXPECT_GT(a[i].time, 0.0);
  }
}

TEST(Workload, PoissonMeanRateApproximatelyHonored) {
  WorkloadOptions o;
  o.arrival_rate = 40.0;
  o.n_requests = 4000;
  o.seed = 3;
  const auto a = generate_arrivals(50, o);
  const double observed =
      static_cast<double>(a.size()) / a.back().time;
  EXPECT_NEAR(observed, o.arrival_rate, 0.1 * o.arrival_rate);
}

TEST(Workload, BurstyPreservesMeanRateAndTerminates) {
  // Regression: the bursty sampler previously spun forever when the
  // remaining segment span underflowed below the clock's ulp at a phase
  // boundary. Generating a long stream exercises many boundary crossings.
  WorkloadOptions o;
  o.process = ArrivalProcess::Bursty;
  o.arrival_rate = 16.0;
  o.burst_multiplier = 4.0;
  o.burst_fraction = 0.2;
  o.cycle_seconds = 4.0;
  o.n_requests = 4000;
  o.seed = 5;
  const auto a = generate_arrivals(64, o);
  ASSERT_EQ(a.size(), 4000u);
  const double observed = static_cast<double>(a.size()) / a.back().time;
  EXPECT_NEAR(observed, o.arrival_rate, 0.15 * o.arrival_rate);
}

TEST(Workload, BurstyIsActuallyBursty) {
  // Max arrivals within any 1s sliding window should clearly exceed the
  // Poisson process's at the same mean rate.
  const auto count_peak = [](const std::vector<Arrival>& a) {
    std::size_t peak = 0;
    for (std::size_t i = 0, j = 0; i < a.size(); ++i) {
      while (a[i].time - a[j].time > 1.0) ++j;
      peak = std::max(peak, i - j + 1);
    }
    return peak;
  };
  WorkloadOptions o;
  o.arrival_rate = 20.0;
  o.n_requests = 2000;
  o.seed = 9;
  const auto poisson = generate_arrivals(64, o);
  o.process = ArrivalProcess::Bursty;
  o.burst_multiplier = 5.0;
  o.burst_fraction = 0.1;
  o.cycle_seconds = 5.0;
  const auto bursty = generate_arrivals(64, o);
  EXPECT_GT(count_peak(bursty), count_peak(poisson));
}

TEST(Workload, TenantZipfSkew) {
  WorkloadOptions o;
  o.arrival_rate = 50.0;
  o.n_tenants = 8;
  o.tenant_skew = 1.2;
  o.n_requests = 4000;
  o.seed = 17;
  const auto a = generate_arrivals(100, o);
  std::vector<std::size_t> counts(o.n_tenants, 0);
  for (const auto& x : a) {
    ASSERT_LT(x.tenant, o.n_tenants);
    ++counts[x.tenant];
  }
  // Rank 0 is the hottest tenant and decisively beats the coldest.
  EXPECT_GT(counts[0], counts[7] * 2);
  for (auto c : counts) EXPECT_GT(c, 0u);  // everyone shows up eventually
}

TEST(Workload, SingleTenantAllZero) {
  WorkloadOptions o;
  o.arrival_rate = 10.0;
  const auto a = generate_arrivals(20, o);
  for (const auto& x : a) EXPECT_EQ(x.tenant, 0u);
}

TEST(Workload, RowVisitOrderCoversTableAndWraps) {
  WorkloadOptions o;
  o.arrival_rate = 10.0;
  o.n_requests = 25;  // 2.5 passes over 10 rows
  o.seed = 23;
  const auto a = generate_arrivals(10, o);
  std::set<std::size_t> first_pass;
  for (std::size_t i = 0; i < 10; ++i) first_pass.insert(a[i].row);
  EXPECT_EQ(first_pass.size(), 10u);  // a full permutation before wrapping
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i].row, a[i % 10].row);  // wrap repeats the permutation
}

TEST(Workload, UnshuffledRowsInTableOrder) {
  WorkloadOptions o;
  o.arrival_rate = 10.0;
  o.shuffle_rows = false;
  const auto a = generate_arrivals(6, o);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].row, i);
}

TEST(Workload, EmptyAndInvalidInputs) {
  EXPECT_TRUE(generate_arrivals(0).empty());
  WorkloadOptions o;
  o.arrival_rate = 0.0;
  EXPECT_THROW(generate_arrivals(5, o), std::invalid_argument);
}

TEST(Workload, TraceDriven) {
  const auto a = arrivals_from_trace({0.5, 1.0, 1.0, 2.5}, {3, 1, 0, 2},
                                     {0, 1, 0, 1});
  ASSERT_EQ(a.size(), 4u);
  EXPECT_DOUBLE_EQ(a[0].time, 0.5);
  EXPECT_EQ(a[3].row, 2u);
  EXPECT_EQ(a[1].tenant, 1u);
  EXPECT_EQ(a[2].id, 2u);

  EXPECT_THROW(arrivals_from_trace({1.0, 0.5}, {0, 1}), std::invalid_argument);
  EXPECT_THROW(arrivals_from_trace({1.0}, {0, 1}), std::invalid_argument);
  EXPECT_THROW(arrivals_from_trace({1.0}, {0}, {0, 1}), std::invalid_argument);
  // Non-finite times compare false with `<`, so the ordering check alone
  // would let them through.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(arrivals_from_trace({0.0, 0.1, nan, 0.3}, {0, 1, 2, 3}),
               std::invalid_argument);
  EXPECT_THROW(arrivals_from_trace({nan}, {0}), std::invalid_argument);
  EXPECT_THROW(arrivals_from_trace({0.0, inf}, {0, 1}), std::invalid_argument);
  EXPECT_THROW(arrivals_from_trace({-inf, 0.0}, {0, 1}),
               std::invalid_argument);
}

TEST(Workload, TraceDrivenPriorityClasses) {
  using llm::PriorityClass;
  // Regression: traces used to drop classes entirely — every arrival came
  // out Standard even when the caller had a class assignment, silently
  // bypassing the whole priority path for trace-driven workloads.

  // Default stays the classic single-class stream.
  for (const auto& a : arrivals_from_trace({0.0, 1.0}, {0, 1}))
    EXPECT_EQ(a.priority, PriorityClass::Standard);

  // One class per arrival (a recorded class column).
  const auto per = arrivals_from_trace(
      {0.0, 1.0, 2.0}, {0, 1, 2}, {5, 6, 5},
      {PriorityClass::Batch, PriorityClass::Interactive,
       PriorityClass::Standard});
  EXPECT_EQ(per[0].priority, PriorityClass::Batch);
  EXPECT_EQ(per[1].priority, PriorityClass::Interactive);
  EXPECT_EQ(per[2].priority, PriorityClass::Standard);

  // Tenant->class mapping, expanded explicitly (same modulo rule as
  // WorkloadOptions::tenant_classes) — a map the size of the trace can
  // never be misread as a class column.
  const std::vector<std::uint32_t> tenants = {0, 1, 2, 3};
  const auto mapped = arrivals_from_trace(
      {0.0, 1.0, 2.0, 3.0}, {0, 1, 2, 3}, tenants,
      classes_for_tenants(tenants, {PriorityClass::Interactive,
                                    PriorityClass::Batch}));
  EXPECT_EQ(mapped[0].priority, PriorityClass::Interactive);
  EXPECT_EQ(mapped[1].priority, PriorityClass::Batch);
  EXPECT_EQ(mapped[2].priority, PriorityClass::Interactive);
  EXPECT_EQ(mapped[3].priority, PriorityClass::Batch);
  EXPECT_TRUE(classes_for_tenants({1, 2}, {}).empty());

  // Anything but one-class-per-arrival is rejected, not guessed at.
  EXPECT_THROW(arrivals_from_trace({0.0}, {0}, {},
                                   {PriorityClass::Interactive,
                                    PriorityClass::Batch}),
               std::invalid_argument);
  EXPECT_THROW(arrivals_from_trace({0.0, 1.0}, {0, 1}, {},
                                   {PriorityClass::Interactive}),
               std::invalid_argument);
}

}  // namespace
}  // namespace llmq::serve
