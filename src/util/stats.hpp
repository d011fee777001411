#pragma once
// Descriptive statistics and bootstrap resampling.
//
// The accuracy experiment (paper Fig. 6) reports bootstrapped medians of
// exact-match accuracy over 10,000 resamples; `bootstrap_median` implements
// that procedure deterministically.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace llmq::util {

double mean(std::span<const double> xs);
double variance(std::span<const double> xs);  // population variance
double stddev(std::span<const double> xs);
double median(std::vector<double> xs);  // by value: sorts a copy

/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> xs, double p);

/// Same statistic over an ALREADY-SORTED sample — no copy, no sort. For
/// call sites that take many percentiles of one sample (latency
/// summaries), sort once and read them all through this; the arithmetic
/// is identical to percentile(), so the results are bit-identical.
double percentile_sorted(std::span<const double> sorted, double p);

/// percentile_sorted(sorted copy of xs, ps[i]) into out[i] for every i,
/// without sorting: it selects only the order statistics each percentile
/// reads (`lo` by nth_element over a range that shrinks as the ranks
/// rise, `lo + 1` as the minimum above it) and applies the same
/// arithmetic, so on NaN-free input the results are bit-identical.
/// `ps` must be ascending; xs is reordered. O(n) expected per percentile.
void percentiles_select(std::span<double> xs, std::span<const double> ps,
                        std::span<double> out);

double min_of(std::span<const double> xs);
double max_of(std::span<const double> xs);

struct BootstrapResult {
  double median_of_medians = 0.0;
  double ci_low = 0.0;   // 2.5th percentile of the bootstrap distribution
  double ci_high = 0.0;  // 97.5th percentile
  std::vector<double> samples;  // one statistic per resample
};

/// Bootstrap the median of `xs`: `n_resamples` draws with replacement.
BootstrapResult bootstrap_median(std::span<const double> xs,
                                 std::size_t n_resamples, Rng& rng);

/// Bootstrap the mean (used for accuracy == mean of 0/1 exact-match scores).
BootstrapResult bootstrap_mean(std::span<const double> xs,
                               std::size_t n_resamples, Rng& rng);

/// Welford online accumulator for streaming statistics.
class RunningStat {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace llmq::util
