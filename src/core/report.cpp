#include "core/report.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/ascii_chart.hpp"
#include "common/stats.hpp"

namespace impress::core {

std::string_view metric_name(Metric m) noexcept {
  switch (m) {
    case Metric::kPlddt: return "pLDDT";
    case Metric::kPtm: return "pTM";
    case Metric::kIpae: return "inter-chain pAE";
  }
  return "?";
}

bool higher_is_better(Metric m) noexcept { return m != Metric::kIpae; }

double metric_value(const fold::FoldMetrics& metrics, Metric m) noexcept {
  switch (m) {
    case Metric::kPlddt: return metrics.plddt;
    case Metric::kPtm: return metrics.ptm;
    case Metric::kIpae: return metrics.ipae;
  }
  return 0.0;
}

std::vector<std::vector<double>> metric_by_cycle(const CampaignResult& result,
                                                 Metric m, int cycles) {
  // Group accepted iterations by target; per (target, cycle) average the
  // records that landed there (root pipeline plus any sub-pipelines) —
  // the state of that target's design pool at that iteration. Taking the
  // best-composite record instead would mask regressions such as the
  // Fig-3 final-cycle deterioration behind a max over random picks.
  struct Cell {
    double sum = 0.0;
    std::size_t n = 0;
  };
  std::map<std::string, std::vector<Cell>> per_target;
  for (const auto& traj : result.trajectories) {
    auto& cells = per_target[traj.target_name];
    if (cells.empty()) cells.resize(static_cast<std::size_t>(cycles));
    for (const auto& rec : traj.history) {
      if (rec.cycle < 1 || rec.cycle > cycles) continue;
      auto& cell = cells[static_cast<std::size_t>(rec.cycle - 1)];
      cell.sum += metric_value(rec.metrics, m);
      ++cell.n;
    }
  }

  std::vector<std::vector<double>> out(static_cast<std::size_t>(cycles));
  for (auto& [target, cells] : per_target) {
    // Carry the last known value forward over pruned cycles.
    bool seen = false;
    double last = 0.0;
    for (int c = 0; c < cycles; ++c) {
      auto& cell = cells[static_cast<std::size_t>(c)];
      if (cell.n > 0) {
        last = cell.sum / static_cast<double>(cell.n);
        seen = true;
      }
      if (seen) out[static_cast<std::size_t>(c)].push_back(last);
    }
  }
  return out;
}

double median_at_cycle(const CampaignResult& result, Metric m, int cycle,
                       int cycles) {
  const auto matrix = metric_by_cycle(result, m, cycles);
  if (cycle < 1 || cycle > cycles) return 0.0;
  return common::median(matrix[static_cast<std::size_t>(cycle - 1)]);
}

double net_delta(const CampaignResult& result, Metric m, int cycles) {
  return median_at_cycle(result, m, cycles, cycles) -
         median_at_cycle(result, m, 1, cycles);
}

namespace {

std::string pct(double fraction) {
  return common::format_fixed(fraction * 100.0, 1) + "%";
}

// Baseline net deltas below this are noise on every Table I metric's
// scale; a relative change against them is meaningless (dividing by one
// turns a 6-point pAE gain into "-46300%").
constexpr double kMinRelativeBaseline = 0.05;

// "own (rel%)", with rel signed so that + means better than the baseline
// for the metric's direction.
std::string delta_with_relative(double own, double baseline, Metric m) {
  std::string s = common::format_fixed(own, own < 1.0 && own > -1.0 ? 2 : 1);
  if (std::fabs(baseline) >= kMinRelativeBaseline) {
    const double gain = higher_is_better(m) ? own - baseline : baseline - own;
    const double rel = gain / std::fabs(baseline) * 100.0;
    s += " (" + std::string(rel >= 0 ? "+" : "") +
         common::format_fixed(rel, 1) + "%)";
  } else {
    s += " (-)";
  }
  return s;
}

}  // namespace

common::Table table1(const CampaignResult& cont_v, const CampaignResult& im_rp,
                     int cycles) {
  common::Table t({"Approach", "# PL", "# Sub-PL", "# Structures/PL",
                   "Trajectories", "CPU %", "GPUs %", "Time (h)",
                   "pTM Net D", "pLDDT Net D", "pAE Net D"});
  for (std::size_t c = 1; c < t.columns(); ++c)
    t.set_align(c, common::Table::Align::kRight);

  auto row = [&](const CampaignResult& r, const CampaignResult* baseline) {
    // CONT-V is reported as the paper reports it: one sequential pipeline
    // batching all structures. IM-RP reports its root pipelines.
    const bool sequential = r.subpipelines == 0 && r.fold_retries == 0 &&
                            r.name == cont_v.name;
    const std::size_t n_pl = sequential ? 1 : r.root_pipelines;
    const std::size_t structs_per_pl =
        n_pl == 0 ? 0 : (r.targets + n_pl - 1) / n_pl;
    const auto delta_cell = [&](Metric m) {
      return delta_with_relative(
          net_delta(r, m, cycles),
          baseline ? net_delta(*baseline, m, cycles) : 0.0, m);
    };
    t.add_row({
        r.name,
        std::to_string(n_pl),
        sequential ? "N/A" : std::to_string(r.subpipelines),
        std::to_string(structs_per_pl),
        std::to_string(r.total_trajectories()),
        pct(r.utilization.cpu_active),
        pct(r.utilization.gpu_active),
        common::format_fixed(r.makespan_h, 1),
        delta_cell(Metric::kPtm),
        delta_cell(Metric::kPlddt),
        delta_cell(Metric::kIpae),
    });
  };
  row(cont_v, nullptr);
  row(im_rp, &cont_v);
  return t;
}

std::string render_metric_figure(const std::string& title,
                                 const std::vector<const CampaignResult*>& arms,
                                 Metric m, int cycles) {
  common::BarChart chart(
      title + " - " + std::string(metric_name(m)) +
          (higher_is_better(m) ? " (higher is better)" : " (lower is better)"),
      m == Metric::kPlddt ? "0-100" : (m == Metric::kPtm ? "0-1" : "A"));
  for (int c = 1; c <= cycles; ++c) {
    common::BarChart::Group group;
    group.label = "iteration " + std::to_string(c);
    for (const CampaignResult* arm : arms) {
      const auto matrix = metric_by_cycle(*arm, m, cycles);
      const auto& vals = matrix[static_cast<std::size_t>(c - 1)];
      common::BarChart::Bar bar;
      bar.series = arm->name;
      bar.value = common::median(vals);
      bar.error = common::stddev(vals) / 2.0;  // paper: half a std dev
      group.bars.push_back(std::move(bar));
    }
    chart.add_group(std::move(group));
  }
  return chart.render();
}

std::string render_utilization_figure(const CampaignResult& result,
                                      const std::string& title) {
  common::TimelineChart chart(title, result.makespan_h);
  chart.add_row({"CPU (28 cores)", result.cpu_series});
  chart.add_row({"GPU (4x M6000)", result.gpu_series});
  std::string out = chart.render();
  out += "phases:";
  for (const auto& [phase, hours] : result.phase_hours)
    out += "  " + phase + "=" + common::format_fixed(hours, 2) + "h";
  out += "  makespan=" + common::format_fixed(result.makespan_h, 1) + "h\n";
  out += "avg CPU " + pct(result.utilization.cpu_active) + " (allocated " +
         pct(result.utilization.cpu_allocated) + "), avg GPU " +
         pct(result.utilization.gpu_active) + " (allocated " +
         pct(result.utilization.gpu_allocated) + ")\n";
  return out;
}

std::string render_fault_summary(const CampaignResult& result) {
  std::string out = "## fault tolerance (" + result.name + ")\n";
  out += "retries=" + std::to_string(result.task_retries) +
         "  timeouts=" + std::to_string(result.task_timeouts) +
         "  requeues=" + std::to_string(result.task_requeues) +
         "  pilot_failures=" + std::to_string(result.pilot_failures) +
         "  terminal_failures=" + std::to_string(result.failed_tasks) + "\n";

  // Attempt distribution: how many tasks needed 1, 2, 3... attempts.
  // result.attempts lists the retried tasks; every other task ran once.
  const std::size_t tasks =
      result.generator_tasks + result.refine_tasks + result.fold_tasks;
  const std::size_t retried_tasks = result.attempts.size();
  std::map<int, std::size_t> by_attempts;
  if (tasks > retried_tasks) by_attempts[1] = tasks - retried_tasks;
  for (const auto& [uid, attempts] : result.attempts) ++by_attempts[attempts];
  out += "attempts:";
  for (const auto& [attempts, n] : by_attempts)
    out += "  x" + std::to_string(attempts) + "=" + std::to_string(n);
  out += "\n";

  if (tasks > 0) {
    out += "tasks retried: " + std::to_string(retried_tasks) + "/" +
           std::to_string(tasks) + " (" +
           pct(static_cast<double>(retried_tasks) /
               static_cast<double>(tasks)) +
           ")\n";
  }
  return out;
}

}  // namespace impress::core
