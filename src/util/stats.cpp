#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace llmq::util {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  const std::size_t mid = xs.size() / 2;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid),
                   xs.end());
  const double hi = xs[mid];
  if (xs.size() % 2 == 1) return hi;
  const double lo =
      *std::max_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

double percentile(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  return percentile_sorted(xs, p);
}

double percentile_sorted(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  if (p <= 0.0) return sorted.front();
  if (p >= 100.0) return sorted.back();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted[lo];
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

void percentiles_select(std::span<double> xs, std::span<const double> ps,
                        std::span<double> out) {
  if (out.size() != ps.size())
    throw std::invalid_argument("percentiles_select: out/ps size mismatch");
  if (!std::is_sorted(ps.begin(), ps.end()))
    throw std::invalid_argument("percentiles_select: ps must be ascending");
  const std::size_t n = xs.size();
  // Order statistics below `from` are settled: everything at or after it
  // is >= xs[from], so a higher rank is selected within [from, n).
  std::size_t from = 0;
  const auto select = [&](std::size_t k) {
    std::nth_element(xs.begin() + static_cast<std::ptrdiff_t>(from),
                     xs.begin() + static_cast<std::ptrdiff_t>(k), xs.end());
    from = k;
    return xs[k];
  };
  for (std::size_t i = 0; i < ps.size(); ++i) {
    const double p = ps[i];
    if (n == 0) {
      out[i] = 0.0;
    } else if (p <= 0.0) {
      out[i] = select(0);
    } else if (p >= 100.0) {
      out[i] = select(n - 1);
    } else {
      const double rank = p / 100.0 * static_cast<double>(n - 1);
      const auto lo = static_cast<std::size_t>(rank);
      const double frac = rank - static_cast<double>(lo);
      const double a = select(lo);
      if (lo + 1 >= n) {
        out[i] = a;
        continue;
      }
      const double b = *std::min_element(
          xs.begin() + static_cast<std::ptrdiff_t>(lo + 1), xs.end());
      out[i] = a * (1.0 - frac) + b * frac;
    }
  }
}

double min_of(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return *std::min_element(xs.begin(), xs.end());
}

double max_of(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return *std::max_element(xs.begin(), xs.end());
}

namespace {

template <typename Statistic>
BootstrapResult bootstrap_impl(std::span<const double> xs,
                               std::size_t n_resamples, Rng& rng,
                               Statistic stat) {
  if (xs.empty()) throw std::invalid_argument("bootstrap: empty sample");
  BootstrapResult out;
  out.samples.reserve(n_resamples);
  std::vector<double> draw(xs.size());
  for (std::size_t i = 0; i < n_resamples; ++i) {
    for (auto& d : draw) d = xs[rng.next_below(xs.size())];
    out.samples.push_back(stat(draw));
  }
  out.median_of_medians = median(out.samples);
  out.ci_low = percentile(out.samples, 2.5);
  out.ci_high = percentile(out.samples, 97.5);
  return out;
}

}  // namespace

BootstrapResult bootstrap_median(std::span<const double> xs,
                                 std::size_t n_resamples, Rng& rng) {
  return bootstrap_impl(xs, n_resamples, rng,
                        [](const std::vector<double>& d) { return median(d); });
}

BootstrapResult bootstrap_mean(std::span<const double> xs,
                               std::size_t n_resamples, Rng& rng) {
  return bootstrap_impl(xs, n_resamples, rng, [](const std::vector<double>& d) {
    return mean(std::span<const double>(d));
  });
}

void RunningStat::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStat::variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

}  // namespace llmq::util
