#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/rng.hpp"

namespace impress::common {

double mean(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) noexcept {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double ss = 0.0;
  for (double x : xs) ss += (x - m) * (x - m);
  return std::sqrt(ss / static_cast<double>(xs.size() - 1));
}

namespace {

std::vector<double> sorted_copy(std::span<const double> xs) {
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  return v;
}

}  // namespace

double percentile_sorted(std::span<const double> v, double p) {
  if (v.empty()) return 0.0;
  if (v.size() == 1) return v.front();
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double rank = clamped / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - std::floor(rank);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::span<const double> xs) {
  return percentile(xs, 50.0);
}

double percentile(std::span<const double> xs, double p) {
  return percentile_sorted(sorted_copy(xs), p);
}

double min_of(std::span<const double> xs) noexcept {
  double m = std::numeric_limits<double>::infinity();
  for (double x : xs) m = std::min(m, x);
  return xs.empty() ? 0.0 : m;
}

double max_of(std::span<const double> xs) noexcept {
  double m = -std::numeric_limits<double>::infinity();
  for (double x : xs) m = std::max(m, x);
  return xs.empty() ? 0.0 : m;
}

Summary summarize(std::span<const double> xs) {
  Summary s;
  s.n = xs.size();
  if (xs.empty()) return s;
  const auto v = sorted_copy(xs);
  s.mean = mean(xs);
  s.stddev = stddev(xs);
  s.median = percentile_sorted(v, 50.0);
  s.min = v.front();
  s.max = v.back();
  s.p25 = percentile_sorted(v, 25.0);
  s.p75 = percentile_sorted(v, 75.0);
  return s;
}

double net_delta_pct(double a, double b) noexcept {
  if (a == 0.0) return 0.0;
  return (b - a) / std::fabs(a) * 100.0;
}

double pearson(std::span<const double> xs, std::span<const double> ys) noexcept {
  if (xs.size() != ys.size() || xs.size() < 2) return 0.0;
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sxy += (xs[i] - mx) * (ys[i] - my);
    sxx += (xs[i] - mx) * (xs[i] - mx);
    syy += (ys[i] - my) * (ys[i] - my);
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

Interval bootstrap_median_ci(std::span<const double> xs, double confidence,
                             std::size_t resamples, std::uint64_t seed) {
  if (xs.size() < 2) {
    const double m = median(xs);
    return {m, m};
  }
  Rng rng(seed);
  std::vector<double> medians;
  medians.reserve(resamples);
  std::vector<double> sample(xs.size());
  for (std::size_t r = 0; r < resamples; ++r) {
    for (auto& s : sample)
      s = xs[rng.below(static_cast<std::uint32_t>(xs.size()))];
    medians.push_back(median(sample));
  }
  const double alpha = (1.0 - confidence) / 2.0 * 100.0;
  return {percentile(medians, alpha), percentile(medians, 100.0 - alpha)};
}

std::string format_fixed(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

}  // namespace impress::common
