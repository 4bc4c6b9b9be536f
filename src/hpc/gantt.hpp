// Gantt rendering of lifecycle marks: one row per task, setup and run
// segments drawn on a shared time axis. The visual form of the Fig-5
// phase breakdown, and the quickest way to see scheduling behaviour
// (backfill vs head-blocking) at a glance.

#pragma once

#include <cstddef>
#include <string>

namespace impress::hpc {

struct TaskTable;

struct GanttOptions {
  std::size_t width = 80;      ///< chart columns for the time span
  std::size_t max_rows = 48;   ///< rows beyond this are summarized
  bool include_waiting = true; ///< draw schedule->exec_setup as '.'
};

/// Render every row of `table` (see hpc::tabulate) that has an exec_start
/// mark, ordered by start time, up to its last exec_stop.
/// Legend: '.' waiting in queue, '-' exec setup, '#' running, '!' retry.
/// `t_end` <= 0 uses the latest mark time.
[[nodiscard]] std::string render_gantt(const TaskTable& table,
                                       double t_end = 0.0,
                                       GanttOptions options = {});

}  // namespace impress::hpc
