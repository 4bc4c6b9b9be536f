#include "hpc/gantt.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/stats.hpp"
#include "common/string_util.hpp"
#include "hpc/analytics.hpp"

namespace impress::hpc {

std::string render_gantt(const TaskTable& table, double t_end,
                         GanttOptions options) {
  if (t_end <= 0.0) t_end = table.latest;
  if (t_end <= 0.0) return "(no events)\n";

  std::vector<const TaskRow*> started;
  for (const TaskRow& r : table.rows)
    if (r.start >= 0.0) started.push_back(&r);
  std::sort(started.begin(), started.end(),
            [](const TaskRow* a, const TaskRow* b) {
              return a->start < b->start;
            });

  auto label_of = [](const TaskRow& r) {
    // Retried tasks carry their attempt count so first attempts and
    // recovery runs are distinguishable at a glance.
    return r.attempts > 1 ? r.uid + " x" + std::to_string(r.attempts) : r.uid;
  };
  std::size_t label_w = 4;
  for (const TaskRow* r : started)
    label_w = std::max(label_w, label_of(*r).size());

  const double scale = static_cast<double>(options.width) / t_end;
  auto col = [&](double t) {
    return static_cast<std::size_t>(std::clamp(
        std::floor(t * scale), 0.0, static_cast<double>(options.width - 1)));
  };

  std::string out =
      "## task gantt ('.'=queued '-'=setup '#'=running '!'=retry)\n";
  const std::size_t shown = std::min(started.size(), options.max_rows);
  for (std::size_t i = 0; i < shown; ++i) {
    const TaskRow& r = *started[i];
    std::string bar(options.width, ' ');
    const double wait_from = options.include_waiting && r.schedule >= 0.0
                                 ? r.schedule
                                 : (r.setup >= 0.0 ? r.setup : r.start);
    const double setup_from = r.setup >= 0.0 ? r.setup : r.start;
    const double stop = r.last_stop >= 0.0 ? r.last_stop : t_end;
    for (std::size_t c = col(wait_from); c <= col(setup_from); ++c) bar[c] = '.';
    for (std::size_t c = col(setup_from); c <= col(r.start); ++c) bar[c] = '-';
    for (std::size_t c = col(r.start); c <= col(stop); ++c) bar[c] = '#';
    for (const double t : r.retries) bar[col(t)] = '!';
    out += common::pad_right(label_of(r), label_w) + " |" + bar + "|\n";
  }
  if (started.size() > shown) {
    out += common::pad_right("...", label_w) + " (+" +
           std::to_string(started.size() - shown) + " more tasks)\n";
  }
  out += common::repeat(' ', label_w) + " 0" +
         common::repeat(' ', options.width - 6) +
         common::format_fixed(t_end / 3600.0, 1) + "h\n";
  return out;
}

}  // namespace impress::hpc
