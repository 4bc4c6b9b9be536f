#include "obs/metrics.hpp"

#include <algorithm>

namespace impress::obs {

Histogram::Histogram(bool enabled, std::vector<double> bounds)
    : enabled_(enabled), bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_ = std::vector<std::atomic<std::uint64_t>>(bounds_.size() + 1);
}

void Histogram::observe(double v) noexcept {
  if (!enabled_) return;
  std::size_t bucket = bounds_.size();  // +Inf
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (v <= bounds_[i]) {
      bucket = i;
      break;
    }
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(sum_, v);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out;
  out.reserve(buckets_.size());
  for (const auto& b : buckets_)
    out.push_back(b.load(std::memory_order_relaxed));
  return out;
}

std::uint64_t Histogram::count() const noexcept {
  return count_.load(std::memory_order_relaxed);
}

double Histogram::sum() const noexcept {
  return sum_.load(std::memory_order_relaxed);
}

void Histogram::preload(const std::vector<std::uint64_t>& buckets,
                        std::uint64_t count, double sum) noexcept {
  if (!enabled_) return;
  const std::size_t n = std::min(buckets.size(), buckets_.size());
  for (std::size_t i = 0; i < n; ++i)
    buckets_[i].store(buckets[i], std::memory_order_relaxed);
  count_.store(count, std::memory_order_relaxed);
  sum_.store(sum, std::memory_order_relaxed);
}

std::vector<double> Histogram::default_seconds_bounds() {
  return {0.001, 0.01, 0.1, 1.0, 10.0, 60.0, 300.0, 1800.0, 7200.0, 43200.0};
}

std::uint64_t MetricsSnapshot::counter(std::string_view name) const noexcept {
  for (const auto& c : counters)
    if (c.name == name) return c.value;
  return 0;
}

MetricsRegistry::MetricsRegistry(bool enabled) : enabled_(enabled) {}

Counter* MetricsRegistry::counter(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto& slot = counters_[std::string(name)];
  if (!slot) slot = std::make_unique<Counter>(enabled_);
  return slot.get();
}

Gauge* MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto& slot = gauges_[std::string(name)];
  if (!slot) slot = std::make_unique<Gauge>(enabled_);
  return slot.get();
}

Histogram* MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds) {
  std::lock_guard lock(mutex_);
  auto& slot = histograms_[std::string(name)];
  if (!slot) slot = std::make_unique<Histogram>(enabled_, std::move(bounds));
  return slot.get();
}

void MetricsRegistry::preload(const MetricsSnapshot& snap) {
  if (!enabled()) return;
  for (const auto& c : snap.counters) counter(c.name)->add(c.value);
  for (const auto& g : snap.gauges) gauge(g.name)->set(g.value);
  for (const auto& h : snap.histograms)
    histogram(h.name, h.bounds)->preload(h.buckets, h.count, h.sum);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  std::lock_guard lock(mutex_);
  out.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_)
    out.counters.push_back(CounterSample{name, c->value()});
  out.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_)
    out.gauges.push_back(GaugeSample{name, g->value()});
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    out.histograms.push_back(HistogramSample{name, h->bounds(),
                                             h->bucket_counts(), h->count(),
                                             h->sum()});
  }
  return out;  // std::map iteration => already sorted by name
}

}  // namespace impress::obs
