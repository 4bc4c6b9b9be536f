// Heterogeneous platforms: pilots mixing CPU-only and GPU nodes (the
// paper's stated direction of "adaptive execution of heterogeneous
// workflows across diverse platforms"). GPU tasks must land only on GPU
// nodes, CPU work should spill onto the CPU nodes, and campaigns must run
// unchanged.

#include <gtest/gtest.h>

#include <set>

#include "core/campaign.hpp"
#include "protein/datasets.hpp"
#include "runtime/session.hpp"

namespace impress::rp {
namespace {

PilotDescription mixed_pilot() {
  PilotDescription pd;
  pd.nodes = {
      hpc::NodeSpec{.name = "cpu0", .cores = 16, .gpus = 0, .mem_gb = 64.0},
      hpc::NodeSpec{.name = "gpu0", .cores = 8, .gpus = 4, .mem_gb = 64.0},
  };
  pd.policy = SchedulerPolicy::kBackfill;
  return pd;
}

TEST(HeterogeneousPlatform, GpuTasksOnlyOnGpuNodes) {
  Session session{SessionConfig{}};
  auto pilot = session.submit_pilot(mixed_pilot());
  std::vector<TaskPtr> gpu_tasks, cpu_tasks;
  for (int i = 0; i < 8; ++i)
    gpu_tasks.push_back(session.task_manager().submit(
        make_simple_task("g" + std::to_string(i), 2, 1, 50.0)));
  for (int i = 0; i < 8; ++i)
    cpu_tasks.push_back(session.task_manager().submit(
        make_simple_task("c" + std::to_string(i), 8, 0, 50.0)));
  session.run();

  // Global gpu ids 0-3 belong to node 1 (cpu0 has none). Check through
  // the recorded allocations at completion time: the task allocation is
  // cleared after release, so validate via utilization intervals instead:
  // every GPU-bearing interval exists and all tasks completed.
  EXPECT_EQ(session.task_manager().counters().done, 16u);
  std::size_t gpu_intervals = 0;
  for (const auto& iv : pilot->recorder().intervals())
    if (iv.gpus > 0) ++gpu_intervals;
  EXPECT_EQ(gpu_intervals, 8u);
}

TEST(HeterogeneousPlatform, CpuWorkUsesBothNodes) {
  Session session{SessionConfig{}};
  auto pilot = session.submit_pilot(mixed_pilot());
  // Six 8-core tasks: 24 cores needed concurrently; the pool has 16 + 8.
  for (int i = 0; i < 6; ++i)
    session.task_manager().submit(
        make_simple_task("w" + std::to_string(i), 8, 0, 100.0));
  session.run();
  // With 3 fitting concurrently (2 on cpu0, 1 on gpu0): two waves.
  EXPECT_DOUBLE_EQ(session.now(), 200.0);
}

TEST(HeterogeneousPlatform, OversizedGpuRequestRejected) {
  Session session{SessionConfig{}};
  session.submit_pilot(mixed_pilot());
  // 16 cores + 1 gpu fits no single node (gpu node has 8 cores).
  EXPECT_THROW(session.task_manager().submit(
                   make_simple_task("impossible", 16, 1, 1.0)),
               std::runtime_error);
}

TEST(HeterogeneousPlatform, CampaignRunsOnMixedPlatform) {
  auto cfg = core::im_rp_campaign(42);
  cfg.pilot.nodes = {
      hpc::NodeSpec{.name = "cpu0", .cores = 20, .gpus = 0, .mem_gb = 128.0},
      hpc::NodeSpec{.name = "gpu0", .cores = 8, .gpus = 4, .mem_gb = 128.0},
  };
  std::vector<protein::DesignTarget> targets;
  targets.push_back(
      protein::make_target("HET-A", 84, protein::alpha_synuclein().tail(10)));
  targets.push_back(
      protein::make_target("HET-B", 90, protein::alpha_synuclein().tail(10)));
  const auto r = core::Campaign(cfg).run(targets);
  EXPECT_GT(r.total_trajectories(), 0u);
  EXPECT_EQ(r.failed_tasks, 0u);
  EXPECT_GT(r.energy_kwh, 0.0);
}

}  // namespace
}  // namespace impress::rp
