// Descriptive statistics used throughout the evaluation harness.
//
// The paper reports medians with half-standard-deviation error bars
// (Figs 2–3) and net-delta percentages (Table I); these helpers compute
// exactly those quantities.

#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace impress::common {

/// Arithmetic mean; 0 for empty input.
[[nodiscard]] double mean(std::span<const double> xs) noexcept;

/// Sample standard deviation (n-1 denominator); 0 for fewer than 2 points.
[[nodiscard]] double stddev(std::span<const double> xs) noexcept;

/// Median (average of the two central order statistics for even n);
/// 0 for empty input. Does not modify the input.
[[nodiscard]] double median(std::span<const double> xs);

/// Linear-interpolated percentile, p in [0, 100]; 0 for empty input.
[[nodiscard]] double percentile(std::span<const double> xs, double p);

/// percentile() of input already sorted ascending — the one copy of the
/// interpolation, for callers that keep their sample sorted.
[[nodiscard]] double percentile_sorted(std::span<const double> sorted,
                                       double p);

[[nodiscard]] double min_of(std::span<const double> xs) noexcept;
[[nodiscard]] double max_of(std::span<const double> xs) noexcept;

/// Five-number-style summary of a sample.
struct Summary {
  std::size_t n = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p25 = 0.0;
  double p75 = 0.0;
};

[[nodiscard]] Summary summarize(std::span<const double> xs);

/// Relative change (b - a) / |a| in percent; 0 when a == 0.
[[nodiscard]] double net_delta_pct(double a, double b) noexcept;

/// Pearson correlation coefficient; 0 when either side is constant or
/// the spans differ in length.
[[nodiscard]] double pearson(std::span<const double> xs,
                             std::span<const double> ys) noexcept;

/// Bootstrap confidence interval for the median.
struct Interval {
  double lo = 0.0;
  double hi = 0.0;
};

/// Percentile-bootstrap CI of the median with `resamples` draws using the
/// given seed. Returns {median, median} for samples of size < 2.
[[nodiscard]] Interval bootstrap_median_ci(std::span<const double> xs,
                                           double confidence = 0.95,
                                           std::size_t resamples = 2000,
                                           std::uint64_t seed = 42);

/// Fixed-width "12.3" style formatting used by the report tables.
[[nodiscard]] std::string format_fixed(double v, int decimals);

}  // namespace impress::common
