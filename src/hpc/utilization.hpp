// Resource-utilization accounting (Figs 4 and 5).
//
// Every executed task contributes one usage interval per resource class.
// Two notions of utilization are tracked, mirroring how the paper's
// numbers were measured:
//
//  * allocated utilization — fraction of (resource x time) covered by an
//    allocation, i.e. what the scheduler reserved;
//  * active utilization    — allocated utilization weighted by the task's
//    *intensity* on that resource class, i.e. what a monitoring tool such
//    as `top`/`nvidia-smi` would report. AlphaFold's CPU feature stage is
//    I/O-bound ("large databases and I/O bottlenecks", paper §III-B), so
//    its CPU intensity is < 1; its GPU inference keeps an M6000 only
//    partially busy, etc.
//
// The paper's ~18.3 % / ~1 % (CONT-V) and ~88 % / ~61 % (IM-RP) figures
// correspond to *active* utilization.

#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/lockdep.hpp"

namespace impress::hpc {

struct UsageInterval {
  double start = 0.0;      ///< seconds
  double end = 0.0;        ///< seconds, end >= start
  std::uint32_t cores = 0;
  std::uint32_t gpus = 0;
  double cpu_intensity = 1.0;  ///< [0,1] busy fraction while allocated
  double gpu_intensity = 1.0;
  std::string task_uid;
};

/// Aggregated utilization over a window.
struct UtilizationSummary {
  double span_seconds = 0.0;
  double cpu_allocated = 0.0;  ///< [0,1]
  double cpu_active = 0.0;
  double gpu_allocated = 0.0;
  double gpu_active = 0.0;
};

class UtilizationRecorder {
 public:
  static constexpr double kDefaultWattsPerCore = 12.0;
  static constexpr double kDefaultWattsPerGpu = 250.0;

  UtilizationRecorder(std::uint32_t total_cores, std::uint32_t total_gpus)
      : total_cores_(total_cores), total_gpus_(total_gpus) {}

  /// Record one task's usage interval. Thread-safe. Intervals are
  /// normalized on entry (start clamped to >= 0, end to >= start) so the
  /// utilization and energy scans all see the same span.
  void record(UsageInterval interval);

  /// Average utilization between t0 and t1 (t1 defaults to the latest
  /// recorded end time when <= t0): one pass over the intervals.
  [[nodiscard]] UtilizationSummary summarize(double t0 = 0.0,
                                             double t1 = -1.0) const;

  /// Per-bin *active* utilization series in [0,1], `bins` equal windows
  /// over [0, span]; suitable for TimelineChart rows.
  [[nodiscard]] std::vector<double> cpu_series(std::size_t bins) const;
  [[nodiscard]] std::vector<double> gpu_series(std::size_t bins) const;

  /// Latest interval end time seen so far (the campaign makespan proxy).
  [[nodiscard]] double latest_end() const;

  /// Estimated dynamic energy in kWh: active core/GPU time weighted by
  /// per-unit draw. Idle/base power is deliberately excluded — this is
  /// the *marginal* cost of the computation, the number that differs
  /// between a well-packed and a badly-packed campaign.
  [[nodiscard]] double energy_kwh(
      double watts_per_core = kDefaultWattsPerCore,
      double watts_per_gpu = kDefaultWattsPerGpu) const;

  [[nodiscard]] std::vector<UsageInterval> intervals() const;
  [[nodiscard]] std::uint32_t total_cores() const noexcept { return total_cores_; }
  [[nodiscard]] std::uint32_t total_gpus() const noexcept { return total_gpus_; }

 private:
  [[nodiscard]] std::vector<double> series(std::size_t bins, bool gpu) const;

  std::uint32_t total_cores_;
  std::uint32_t total_gpus_;
  mutable common::TrackedMutex mutex_{"UtilizationRecorder::mutex_"};
  std::vector<UsageInterval> intervals_;
  double latest_end_raw_ = 0.0;  ///< max end; only meaningful when non-empty
};

}  // namespace impress::hpc
