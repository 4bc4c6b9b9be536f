// Full-stack integration: campaigns through the real coordinator, runtime
// and surrogates, in both execution modes.

#include <gtest/gtest.h>

#include "core/campaign.hpp"
#include "core/report.hpp"
#include "protein/datasets.hpp"

namespace impress::core {
namespace {

std::vector<protein::DesignTarget> targets2() {
  std::vector<protein::DesignTarget> out;
  out.push_back(
      protein::make_target("E2E-A", 84, protein::alpha_synuclein().tail(10)));
  out.push_back(
      protein::make_target("E2E-B", 92, protein::alpha_synuclein().tail(10)));
  return out;
}

TEST(EndToEnd, ImRpCampaignInvariants) {
  const auto targets = targets2();
  const auto r = Campaign(im_rp_campaign(42)).run(targets);

  // Structural invariants of any campaign.
  EXPECT_EQ(r.root_pipelines, targets.size());
  EXPECT_EQ(r.failed_tasks, 0u);
  EXPECT_GT(r.total_trajectories(), 0u);
  // Every fold task is an accepted iteration, a counted retry, or the
  // single decline that terminated a pipeline.
  std::size_t terminated = 0;
  for (const auto& t : r.trajectories)
    if (t.terminated_early) ++terminated;
  EXPECT_GE(r.fold_tasks, r.total_trajectories() + r.fold_retries);
  EXPECT_LE(r.fold_tasks,
            r.total_trajectories() + r.fold_retries + terminated);

  // Accepted iterations are monotone in composite within each trajectory
  // when the cycle was adaptive — the genetic ratchet.
  for (const auto& t : r.trajectories) {
    for (std::size_t i = 1; i < t.history.size(); ++i) {
      EXPECT_GT(t.history[i].metrics.composite(),
                t.history[i - 1].metrics.composite())
          << "non-monotone accepted iteration in " << t.pipeline_id;
    }
  }

  // Cycles in each trajectory are strictly increasing and within range.
  for (const auto& t : r.trajectories) {
    int prev = 0;
    for (const auto& rec : t.history) {
      EXPECT_GT(rec.cycle, prev);
      EXPECT_LE(rec.cycle, calibration::kCycles);
      prev = rec.cycle;
    }
  }
}

TEST(EndToEnd, UtilizationNeverExceedsCapacity) {
  const auto targets = targets2();
  for (const auto& config : {im_rp_campaign(42), cont_v_campaign(42)}) {
    const auto r = Campaign(config).run(targets);
    EXPECT_GT(r.utilization.cpu_active, 0.0);
    EXPECT_LE(r.utilization.cpu_active, 1.0);
    EXPECT_LE(r.utilization.cpu_allocated, 1.0);
    EXPECT_LE(r.utilization.gpu_allocated, 1.0);
    EXPECT_LE(r.utilization.cpu_active, r.utilization.cpu_allocated + 1e-9);
    EXPECT_LE(r.utilization.gpu_active, r.utilization.gpu_allocated + 1e-9);
    for (double v : r.cpu_series) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

TEST(EndToEnd, PhaseHoursAccountForMakespan) {
  const auto targets = targets2();
  const auto r = Campaign(cont_v_campaign(42)).run(targets);
  // Sequential: bootstrap + setup + running ~ makespan (no overlap).
  const double total = r.phase_hours.at("bootstrap") +
                       r.phase_hours.at("exec_setup") +
                       r.phase_hours.at("running");
  EXPECT_NEAR(total, r.makespan_h, 0.2);
}

TEST(EndToEnd, ThreadedModeMatchesSimCounts) {
  // The same campaign in threaded mode: wall-clock pacing and real
  // threads, same protocol semantics. Counts must line up structurally
  // (the random streams differ because completion order differs, so we
  // compare invariants, not exact numbers).
  auto cfg = im_rp_campaign(42);
  cfg.protocol.spawn_subpipelines = false;  // keep the workload fixed
  cfg.session.mode = rp::ExecutionMode::kThreaded;
  cfg.session.time_scale = 2e-7;  // one hour -> ~0.7 ms
  cfg.session.worker_threads = 12;
  const auto targets = targets2();
  const auto r = Campaign(cfg).run(targets);
  EXPECT_EQ(r.root_pipelines, targets.size());
  EXPECT_EQ(r.failed_tasks, 0u);
  EXPECT_GT(r.total_trajectories(), 0u);
  EXPECT_LE(r.total_trajectories(),
            targets.size() * static_cast<std::size_t>(calibration::kCycles));
  for (const auto& t : r.trajectories)
    for (std::size_t i = 1; i < t.history.size(); ++i)
      EXPECT_GT(t.history[i].metrics.composite(),
                t.history[i - 1].metrics.composite());
}

TEST(EndToEnd, SequentialContVHasLowerUtilizationThanImRp) {
  const auto targets = targets2();
  const auto cont = Campaign(cont_v_campaign(42)).run(targets);
  const auto im = Campaign(im_rp_campaign(42)).run(targets);
  EXPECT_GT(im.utilization.cpu_active, cont.utilization.cpu_active);
  EXPECT_GT(im.utilization.gpu_active, cont.utilization.gpu_active);
}

TEST(EndToEnd, ReportPipelineWorksOnRealResults) {
  const auto targets = targets2();
  const auto cont = Campaign(cont_v_campaign(42)).run(targets);
  const auto im = Campaign(im_rp_campaign(42)).run(targets);
  const auto table = table1(cont, im, calibration::kCycles);
  EXPECT_EQ(table.rows(), 2u);
  const auto fig = render_metric_figure("itest", {&cont, &im},
                                        Metric::kPlddt, calibration::kCycles);
  EXPECT_NE(fig.find("CONT-V"), std::string::npos);
  const auto util = render_utilization_figure(im, "itest-util");
  EXPECT_NE(util.find("avg CPU"), std::string::npos);
}

}  // namespace
}  // namespace impress::core
