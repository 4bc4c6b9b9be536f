// Metrics registry: counters, gauges and fixed-bucket histograms with
// lock-free hot-path increments.
//
// Usage contract (enforced by the impress_lint hot-string-key rule in
// spirit): instruments are registered ONCE — by name, under a mutex — and
// the returned handle pointer is cached by the caller; hot paths touch
// only atomics through the handle, never a string lookup. The runtime's
// handles are pre-registered in one bundle (obs/obs.hpp RuntimeMetrics).
//
// Hot-path cost:
//   * disabled registry (the default): one predictable branch per call;
//   * Counter::add — one relaxed fetch_add on the counter's one cell;
//   * Histogram::observe — branchless-ish bucket scan over <=16 bounds +
//     two relaxed atomics, plus a CAS-loop add for the running sum.
//
// Each instrument is one set of cells, so a checkpoint's preloaded totals
// and every later observation land on the same cells in record order: a
// resumed campaign's histogram sums are bit-identical to the
// uninterrupted run's, whichever thread records. Reads (value()/
// snapshot()) are racy-by-design point-in-time loads, exact once writers
// have quiesced — the campaign harvests its MetricsSnapshot after the
// session has drained (pinned by tests/obs/test_metrics.cpp and the
// stress hammer).

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace impress::obs {

namespace detail {

/// Portable atomic add for doubles (CAS loop, relaxed).
inline void atomic_add(std::atomic<double>& cell, double delta) noexcept {
  double cur = cell.load(std::memory_order_relaxed);
  while (!cell.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed))
    ;
}

}  // namespace detail

/// Monotonic counter. Handles are owned by the registry; pointers remain
/// valid for the registry's lifetime.
class Counter {
 public:
  explicit Counter(bool enabled) : enabled_(enabled) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t delta = 1) noexcept {
    if (enabled_) value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void inc() noexcept { add(1); }

  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  const bool enabled_;
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value with add/sub (e.g. tasks in
/// flight). One atomic, like a counter.
class Gauge {
 public:
  explicit Gauge(bool enabled) : enabled_(enabled) {}
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double v) noexcept {
    if (enabled_) value_.store(v, std::memory_order_relaxed);
  }
  void add(double delta) noexcept {
    if (enabled_) detail::atomic_add(value_, delta);
  }
  void sub(double delta) noexcept { add(-delta); }

  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  const bool enabled_;
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: `bounds` are ascending upper edges; an
/// observation lands in the first bucket whose bound is >= it, else in
/// the implicit +Inf bucket. One set of bucket, count and sum cells.
class Histogram {
 public:
  Histogram(bool enabled, std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double v) noexcept;

  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  /// Per-bucket counts (bounds().size() + 1 entries; last is +Inf).
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  [[nodiscard]] std::uint64_t count() const noexcept;
  [[nodiscard]] double sum() const noexcept;

  /// Default latency edges (seconds), log-ish spaced.
  [[nodiscard]] static std::vector<double> default_seconds_bounds();

  /// Checkpoint restore: load `buckets`/`count`/`sum` into the cells of an
  /// untouched histogram (post-resume observes add on top). Bucket counts
  /// beyond bounds().size()+1 are ignored.
  void preload(const std::vector<std::uint64_t>& buckets, std::uint64_t count,
               double sum) noexcept;

 private:
  const bool enabled_;
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  ///< bounds_.size()+1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// --- campaign-end snapshot (plain data, serializable) ---

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
  bool operator==(const CounterSample&) const = default;
};

struct GaugeSample {
  std::string name;
  double value = 0.0;
  bool operator==(const GaugeSample&) const = default;
};

struct HistogramSample {
  std::string name;
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;  ///< bounds.size()+1, last = +Inf
  std::uint64_t count = 0;
  double sum = 0.0;
  bool operator==(const HistogramSample&) const = default;
};

/// Point-in-time copy of every registered instrument, sorted by name.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
  bool operator==(const MetricsSnapshot&) const = default;

  [[nodiscard]] bool empty() const noexcept {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
  /// Value of a named counter, or 0 when absent.
  [[nodiscard]] std::uint64_t counter(std::string_view name) const noexcept;
};

/// Owns every instrument. Registration is mutex-guarded and idempotent by
/// name (same name => same handle; a histogram re-registered with
/// different bounds keeps the first bounds). Handle pointers are stable
/// for the registry's lifetime.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(bool enabled = false);
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  [[nodiscard]] Counter* counter(std::string_view name);
  [[nodiscard]] Gauge* gauge(std::string_view name);
  [[nodiscard]] Histogram* histogram(std::string_view name,
                                     std::vector<double> bounds);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Checkpoint restore: re-register every instrument in `snap` and load
  /// its value (counters via add, gauges via set, histograms via
  /// Histogram::preload), so a freshly-constructed registry resumes with
  /// the checkpointed totals. No-op when disabled.
  void preload(const MetricsSnapshot& snap);

 private:
  const bool enabled_;
  mutable std::mutex mutex_;  // guards the maps (registration + snapshot)
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace impress::obs
