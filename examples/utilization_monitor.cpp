// Watching the middleware itself: run a heterogeneous workload on the
// *threaded* executor (real worker threads, scaled wall-clock) and render
// the pilot's utilization timeline plus the phase breakdown from the
// session's lifecycle marks — the machinery behind the paper's Figs 4-5.
//
//   $ ./examples/utilization_monitor

#include <cstdio>

#include "common/ascii_chart.hpp"
#include "common/time_util.hpp"
#include "hpc/analytics.hpp"
#include "runtime/session.hpp"

using namespace impress;

int main() {
  rp::SessionConfig cfg;
  cfg.mode = rp::ExecutionMode::kThreaded;
  cfg.time_scale = 2e-5;  // one simulated hour ~ 72 ms wall
  cfg.worker_threads = 12;
  rp::Session session(cfg);

  rp::PilotDescription pd;  // one Amarel-like node
  pd.bootstrap_s = 120.0;
  pd.exec_overhead = rp::ExecOverheadModel{.setup_mean_s = 60.0,
                                           .setup_jitter_sigma = 0.2};
  auto pilot = session.submit_pilot(pd);

  // A mixed workload: wide CPU-bound "feature" tasks, narrow GPU tasks,
  // and two-phase tasks like the AlphaFold footprint.
  for (int i = 0; i < 6; ++i)
    session.task_manager().submit(
        rp::make_simple_task("features" + std::to_string(i), 7, 0, 3600.0));
  for (int i = 0; i < 8; ++i)
    session.task_manager().submit(
        rp::make_simple_task("gpu" + std::to_string(i), 2, 1, 1200.0));
  for (int i = 0; i < 3; ++i) {
    rp::TaskDescription td;
    td.name = "twophase" + std::to_string(i);
    td.resources = {.cores = 6, .gpus = 1, .mem_gb = 16.0};
    td.phases.push_back(rp::TaskPhase{.name = "cpu",
                                      .duration_s = 2400.0,
                                      .cores = 6,
                                      .gpus = 0,
                                      .cpu_intensity = 0.9,
                                      .gpu_intensity = 0.0});
    td.phases.push_back(rp::TaskPhase{.name = "gpu",
                                      .duration_s = 1500.0,
                                      .cores = 2,
                                      .gpus = 1,
                                      .cpu_intensity = 0.3,
                                      .gpu_intensity = 0.9});
    session.task_manager().submit(std::move(td));
  }

  std::printf("running 17 tasks on %u cores / %u gpus (threaded executor, "
              "%zu workers)...\n",
              pilot->pool().total_cores(), pilot->pool().total_gpus(),
              cfg.worker_threads);
  session.run();

  const double makespan = pilot->recorder().latest_end();
  common::TimelineChart chart("threaded-run utilization",
                              common::seconds_to_hours(makespan));
  chart.add_row({"CPU", pilot->recorder().cpu_series(80)});
  chart.add_row({"GPU", pilot->recorder().gpu_series(80)});
  std::printf("\n%s\n", chart.render().c_str());

  const auto phases = hpc::phase_durations(
      session.observability().tracer().visit_marks(hpc::tabulate));
  std::printf("profiler phase totals: bootstrap=%s exec_setup=%s running=%s\n",
              common::format_duration(phases.at("bootstrap")).c_str(),
              common::format_duration(phases.at("exec_setup")).c_str(),
              common::format_duration(phases.at("running")).c_str());
  const rp::TaskManager::Counters counters = session.task_manager().counters();
  std::printf("tasks done=%llu failed=%llu, makespan %s (simulated)\n",
              static_cast<unsigned long long>(counters.done),
              static_cast<unsigned long long>(counters.failed),
              common::format_duration(makespan).c_str());
  return counters.failed == 0 ? 0 : 1;
}
