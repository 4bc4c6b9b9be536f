// Fixed-bin histogram with ASCII rendering, used by the analytics layer
// (e.g. the task wait-time distribution under Fig 5), plus an HDR-style
// log-linear histogram for high-resolution latency quantiles.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace impress::common {

class Histogram {
 public:
  /// `bins` equal-width bins over [lo, hi); samples outside the range
  /// land in the under/overflow counters. Requires lo < hi, bins >= 1.
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  void add_all(std::span<const double> xs);

  [[nodiscard]] std::size_t count(std::size_t bin) const {
    return counts_.at(bin);
  }
  [[nodiscard]] std::size_t bins() const noexcept { return counts_.size(); }
  [[nodiscard]] std::size_t total() const noexcept { return total_; }
  [[nodiscard]] std::size_t underflow() const noexcept { return underflow_; }
  [[nodiscard]] std::size_t overflow() const noexcept { return overflow_; }
  [[nodiscard]] double bin_low(std::size_t bin) const;
  [[nodiscard]] double bin_high(std::size_t bin) const;

  /// Horizontal bar rendering; the fullest bin spans `width` characters.
  /// `unit` labels the x-axis values (e.g. "s", "h").
  [[nodiscard]] std::string render(std::size_t width = 40,
                                   const std::string& unit = "") const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
};

/// Fixed-memory high-dynamic-range histogram with log-linear buckets
/// (HdrHistogram-style): the full 64-bit value range at a bounded
/// relative error, so a latency recorder keyed in nanoseconds yields a
/// meaningful p999 at microsecond granularity without pre-declaring a
/// range.
///
/// Layout: values below 2^p land in 2^p width-1 linear buckets; above
/// that, each power-of-two segment is split into 2^p log-linear
/// sub-buckets, giving a relative quantile error bounded by 2^-p.
/// Memory is fixed at construction: (65 - p) * 2^p counters.
///
/// Not internally synchronized — one writer, or external locking.
class HdrHistogram {
 public:
  /// `precision_bits` = p above. p=7 (the default) bounds the relative
  /// quantile error by 1/128 (< 1%) in ~58 KB.
  explicit HdrHistogram(unsigned precision_bits = 7);

  void record(std::uint64_t value) noexcept { record_n(value, 1); }
  void record_n(std::uint64_t value, std::uint64_t n) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t min() const noexcept {
    return total_ == 0 ? 0 : min_;
  }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept {
    return total_ == 0 ? 0.0 : sum_ / static_cast<double>(total_);
  }

  /// Value at quantile q in [0, 1]: an upper bound for the exact sorted
  /// sample sorted[ceil(q*n) - 1], within a 2^-p relative error (clamped
  /// to the observed max). Returns 0 on an empty histogram.
  [[nodiscard]] std::uint64_t quantile(double q) const noexcept;

  /// Add another histogram's counts (same precision_bits required).
  void merge(const HdrHistogram& other);

  void reset() noexcept;

  [[nodiscard]] unsigned precision_bits() const noexcept { return p_; }
  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return counts_.size();
  }

 private:
  [[nodiscard]] std::size_t index_of(std::uint64_t v) const noexcept;
  /// Largest value mapping to bucket `idx` (the quantile representative).
  [[nodiscard]] std::uint64_t highest_of(std::size_t idx) const noexcept;

  unsigned p_;
  std::vector<std::uint64_t> counts_;  // fixed size after construction
  std::uint64_t total_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
  double sum_ = 0.0;
};

}  // namespace impress::common
