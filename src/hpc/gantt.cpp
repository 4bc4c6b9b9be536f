#include "hpc/gantt.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "common/stats.hpp"
#include "common/string_util.hpp"
#include "hpc/analytics.hpp"

namespace impress::hpc {

namespace {

struct Row {
  std::string uid;
  double schedule = -1.0;
  double setup = -1.0;
  double start = -1.0;
  double stop = -1.0;
  int attempts = 0;             ///< kSubmit count; > 1 means retried
  std::vector<double> retries;  ///< times the retry policy fired
};

}  // namespace

std::string render_gantt(std::span<const obs::Mark> marks, double t_end,
                         GanttOptions options) {
  std::map<std::string, Row> rows;
  double latest = 0.0;
  for (const auto& e : marks) {
    auto [it, inserted] = rows.try_emplace(e.entity);
    auto& r = it->second;
    if (inserted) r.uid = e.entity;
    if (e.event == events::kSchedule && r.schedule < 0.0) r.schedule = e.time;
    else if (e.event == events::kExecSetupStart && r.setup < 0.0) r.setup = e.time;
    else if (e.event == events::kExecStart && r.start < 0.0) r.start = e.time;
    else if (e.event == events::kExecStop) r.stop = e.time;  // last attempt
    else if (e.event == events::kSubmit) ++r.attempts;
    else if (e.event == events::kRetry) r.retries.push_back(e.time);
    latest = std::max(latest, e.time);
  }
  if (t_end <= 0.0) t_end = latest;
  if (t_end <= 0.0) return "(no events)\n";

  std::vector<Row> started;
  for (auto& [uid, r] : rows)
    if (r.start >= 0.0) started.push_back(r);
  std::sort(started.begin(), started.end(),
            [](const Row& a, const Row& b) { return a.start < b.start; });

  auto label_of = [](const Row& r) {
    // Retried tasks carry their attempt count so first attempts and
    // recovery runs are distinguishable at a glance.
    return r.attempts > 1 ? r.uid + " x" + std::to_string(r.attempts) : r.uid;
  };
  std::size_t label_w = 4;
  for (const auto& r : started) label_w = std::max(label_w, label_of(r).size());

  const double scale = static_cast<double>(options.width) / t_end;
  auto col = [&](double t) {
    return static_cast<std::size_t>(std::clamp(
        std::floor(t * scale), 0.0, static_cast<double>(options.width - 1)));
  };

  std::string out =
      "## task gantt ('.'=queued '-'=setup '#'=running '!'=retry)\n";
  const std::size_t shown = std::min(started.size(), options.max_rows);
  for (std::size_t i = 0; i < shown; ++i) {
    const auto& r = started[i];
    std::string bar(options.width, ' ');
    const double wait_from = options.include_waiting && r.schedule >= 0.0
                                 ? r.schedule
                                 : (r.setup >= 0.0 ? r.setup : r.start);
    const double setup_from = r.setup >= 0.0 ? r.setup : r.start;
    const double stop = r.stop >= 0.0 ? r.stop : t_end;
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
