// Queue-depth / saturation signal an execution backend reports to the
// service layer's admission control (src/service): the PCC-style
// backpressure controller treats it as its congestion observation — when
// the backend saturates, queued work piles up here first, long before
// tasks start failing.

#pragma once

#include <cstddef>

namespace impress::rp {

/// Point-in-time load of a backend. Reads are racy-by-design
/// instantaneous samples, exact once the backend has quiesced — the same
/// contract as the metrics layer.
struct LoadSnapshot {
  std::size_t queued = 0;    ///< tasks waiting in agent queues
  std::size_t running = 0;   ///< tasks currently holding an allocation
  std::size_t capacity = 0;  ///< total cores (crude concurrency ceiling)

  /// Dimensionless backlog: queued work per unit of capacity. 0 on an
  /// empty or capacity-less snapshot; grows without bound as the front
  /// door outruns the machine.
  [[nodiscard]] double pressure() const noexcept {
    return capacity == 0 ? 0.0
                         : static_cast<double>(queued) /
                               static_cast<double>(capacity);
  }
};

}  // namespace impress::rp
