// Gantt rendering of profiler events: one row per task, setup and run
// segments drawn on a shared time axis. The visual form of the Fig-5
// phase breakdown, and the quickest way to see scheduling behaviour
// (backfill vs head-blocking) at a glance.

#pragma once

#include <cstddef>
#include <span>
#include <string>

#include "hpc/profiler.hpp"

namespace impress::hpc {

struct GanttOptions {
  std::size_t width = 80;      ///< chart columns for the time span
  std::size_t max_rows = 48;   ///< rows beyond this are summarized
  bool include_waiting = true; ///< draw schedule->exec_setup as '.'
};

/// Render every task that has an exec_start event in `stream` (events in
/// record order, as Profiler::events() returns them), ordered by start
/// time. Legend: '.' waiting in queue, '-' exec setup, '#' running.
/// `t_end` <= 0 uses the latest event time.
[[nodiscard]] std::string render_gantt(std::span<const ProfileEvent> stream,
                                       double t_end = 0.0,
                                       GanttOptions options = {});

}  // namespace impress::hpc
