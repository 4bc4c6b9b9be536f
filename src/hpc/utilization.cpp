#include "hpc/utilization.hpp"

#include <algorithm>
#include <cmath>

namespace impress::hpc {

void UtilizationRecorder::record(UsageInterval interval) {
  // Normalize at the door: the campaign clock starts at 0, so a negative
  // start is a recording artifact, not usage. Clamping here (instead of
  // per-query) keeps the windowed scans and the energy scan in agreement
  // on the same interval.
  if (interval.start < 0.0) interval.start = 0.0;
  if (interval.end < interval.start) interval.end = interval.start;
  std::lock_guard lock(mutex_);
  latest_end_raw_ = std::max(latest_end_raw_, interval.end);
  intervals_.push_back(std::move(interval));
}

double UtilizationRecorder::latest_end() const {
  std::lock_guard lock(mutex_);
  return std::max(0.0, latest_end_raw_);
}

UtilizationSummary UtilizationRecorder::summarize(double t0, double t1) const {
  std::lock_guard lock(mutex_);
  if (t1 <= t0) {
    t1 = t0;
    if (!intervals_.empty()) t1 = std::max(t1, latest_end_raw_);
  }
  UtilizationSummary s;
  s.span_seconds = t1 - t0;
  if (s.span_seconds <= 0.0) return s;

  double core_alloc_s = 0.0, core_active_s = 0.0;
  double gpu_alloc_s = 0.0, gpu_active_s = 0.0;
  for (const auto& iv : intervals_) {
    const double overlap =
        std::max(0.0, std::min(iv.end, t1) - std::max(iv.start, t0));
    if (overlap <= 0.0) continue;
    core_alloc_s += overlap * iv.cores;
    core_active_s += overlap * iv.cores * iv.cpu_intensity;
    gpu_alloc_s += overlap * iv.gpus;
    gpu_active_s += overlap * iv.gpus * iv.gpu_intensity;
  }
  const double core_capacity = s.span_seconds * total_cores_;
  const double gpu_capacity = s.span_seconds * total_gpus_;
  if (core_capacity > 0.0) {
    s.cpu_allocated = core_alloc_s / core_capacity;
    s.cpu_active = core_active_s / core_capacity;
  }
  if (gpu_capacity > 0.0) {
    s.gpu_allocated = gpu_alloc_s / gpu_capacity;
    s.gpu_active = gpu_active_s / gpu_capacity;
  }
  return s;
}

std::vector<double> UtilizationRecorder::series(std::size_t bins, bool gpu) const {
  std::vector<double> out(bins, 0.0);
  if (bins == 0) return out;
  std::lock_guard lock(mutex_);
  double span = 0.0;
  for (const auto& iv : intervals_) span = std::max(span, iv.end);
  if (span <= 0.0) return out;
  const double bin_w = span / static_cast<double>(bins);
  const double capacity = gpu ? static_cast<double>(total_gpus_)
                              : static_cast<double>(total_cores_);
  if (capacity <= 0.0) return out;

  for (const auto& iv : intervals_) {
    const double units = gpu ? iv.gpus * iv.gpu_intensity
                             : iv.cores * iv.cpu_intensity;
    if (units <= 0.0) continue;
    const auto first = static_cast<std::size_t>(std::floor(iv.start / bin_w));
    const auto last = static_cast<std::size_t>(
        std::min(std::floor(iv.end / bin_w), static_cast<double>(bins - 1)));
    for (std::size_t b = first; b <= last && b < bins; ++b) {
      const double b0 = static_cast<double>(b) * bin_w;
      const double b1 = b0 + bin_w;
      const double overlap = std::max(0.0, std::min(iv.end, b1) - std::max(iv.start, b0));
      out[b] += overlap * units / (bin_w * capacity);
    }
  }
  for (auto& v : out) v = std::min(v, 1.0);
  return out;
}

std::vector<double> UtilizationRecorder::cpu_series(std::size_t bins) const {
  return series(bins, /*gpu=*/false);
}

std::vector<double> UtilizationRecorder::gpu_series(std::size_t bins) const {
  return series(bins, /*gpu=*/true);
}

double UtilizationRecorder::energy_kwh(double watts_per_core,
                                       double watts_per_gpu) const {
  std::lock_guard lock(mutex_);
  double joules = 0.0;
  for (const auto& iv : intervals_) {
    const double dt = iv.end - iv.start;
    if (dt <= 0.0) continue;
    joules += dt * (iv.cores * iv.cpu_intensity * watts_per_core +
                    iv.gpus * iv.gpu_intensity * watts_per_gpu);
  }
  return joules / 3.6e6;
}

std::vector<UsageInterval> UtilizationRecorder::intervals() const {
  std::lock_guard lock(mutex_);
  return intervals_;
}

}  // namespace impress::hpc
