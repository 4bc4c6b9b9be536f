// Checkpoint/restart determinism: a campaign killed after a checkpoint
// and resumed from the file must reproduce the uninterrupted
// run's CampaignResult bit for bit (same checkpoint cadence on both
// sides — cutting a checkpoint quiesces the coordinator, which is itself
// part of the schedule being reproduced).

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <iomanip>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/fs.hpp"
#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/session_dump.hpp"
#include "obs/metrics.hpp"
#include "protein/datasets.hpp"

namespace impress::core {
namespace {

namespace fs = std::filesystem;

std::vector<protein::DesignTarget> targets2() {
  std::vector<protein::DesignTarget> out;
  out.push_back(
      protein::make_target("DET-A", 86, protein::alpha_synuclein().tail(10)));
  out.push_back(
      protein::make_target("DET-B", 90, protein::alpha_synuclein().tail(10)));
  return out;
}

void expect_identical(const CampaignResult& a, const CampaignResult& b) {
  ASSERT_EQ(a.trajectories.size(), b.trajectories.size());
  for (std::size_t i = 0; i < a.trajectories.size(); ++i) {
    const auto& ta = a.trajectories[i];
    const auto& tb = b.trajectories[i];
    EXPECT_EQ(ta.pipeline_id, tb.pipeline_id);
    EXPECT_EQ(ta.terminated_early, tb.terminated_early);
    ASSERT_EQ(ta.history.size(), tb.history.size());
    for (std::size_t j = 0; j < ta.history.size(); ++j) {
      EXPECT_EQ(ta.history[j].sequence, tb.history[j].sequence);
      EXPECT_DOUBLE_EQ(ta.history[j].metrics.plddt,
                       tb.history[j].metrics.plddt);
      EXPECT_DOUBLE_EQ(ta.history[j].metrics.ptm, tb.history[j].metrics.ptm);
      EXPECT_DOUBLE_EQ(ta.history[j].metrics.ipae, tb.history[j].metrics.ipae);
      EXPECT_DOUBLE_EQ(ta.history[j].true_fitness, tb.history[j].true_fitness);
    }
  }
  EXPECT_DOUBLE_EQ(a.makespan_h, b.makespan_h);
  EXPECT_DOUBLE_EQ(a.energy_kwh, b.energy_kwh);
  EXPECT_DOUBLE_EQ(a.utilization.cpu_active, b.utilization.cpu_active);
  EXPECT_DOUBLE_EQ(a.utilization.gpu_active, b.utilization.gpu_active);
  EXPECT_EQ(a.cpu_series, b.cpu_series);
  EXPECT_EQ(a.gpu_series, b.gpu_series);
  EXPECT_EQ(a.phase_hours, b.phase_hours);
  EXPECT_EQ(a.gantt, b.gantt);
  EXPECT_EQ(a.root_pipelines, b.root_pipelines);
  EXPECT_EQ(a.subpipelines, b.subpipelines);
  EXPECT_EQ(a.generator_tasks, b.generator_tasks);
  EXPECT_EQ(a.refine_tasks, b.refine_tasks);
  EXPECT_EQ(a.fold_tasks, b.fold_tasks);
  EXPECT_EQ(a.fold_retries, b.fold_retries);
  EXPECT_EQ(a.failed_tasks, b.failed_tasks);
  EXPECT_EQ(a.task_retries, b.task_retries);
  EXPECT_EQ(a.task_timeouts, b.task_timeouts);
  EXPECT_EQ(a.task_requeues, b.task_requeues);
  EXPECT_EQ(a.pilot_failures, b.pilot_failures);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.fold_cache.hits, b.fold_cache.hits);
  EXPECT_EQ(a.fold_cache.misses, b.fold_cache.misses);
  EXPECT_EQ(a.fold_cache.evictions, b.fold_cache.evictions);
}

void expect_identical_observability(const CampaignResult& a,
                                    const CampaignResult& b) {
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].id, b.trace[i].id);
    EXPECT_EQ(a.trace[i].parent, b.trace[i].parent);
    EXPECT_EQ(a.trace[i].name, b.trace[i].name);
    EXPECT_EQ(a.trace[i].category, b.trace[i].category);
    EXPECT_DOUBLE_EQ(a.trace[i].start, b.trace[i].start);
    EXPECT_DOUBLE_EQ(a.trace[i].end, b.trace[i].end);
    EXPECT_EQ(a.trace[i].open_seq, b.trace[i].open_seq);
    EXPECT_EQ(a.trace[i].close_seq, b.trace[i].close_seq);
    EXPECT_EQ(a.trace[i].attrs, b.trace[i].attrs);
  }
  EXPECT_EQ(a.metrics, b.metrics);
}

class CheckpointResume : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per process: ctest runs tests as parallel processes,
    // and object addresses repeat across them (TSan fixes the layout).
    base_ = fs::temp_directory_path() /
            ("impress_resume_" + std::to_string(::getpid()));
    fs::create_directories(base_);
  }
  void TearDown() override {
    common::set_atomic_write_test_hook(nullptr);
    fs::remove_all(base_);
  }
  std::string dir(const std::string& name) {
    const auto d = base_ / name;
    fs::create_directories(d);
    return d.string();
  }
  fs::path base_;
};

struct KillSpec {
  std::size_t every_n_completions;
  std::size_t halt_after;  ///< crash after this many checkpoint writes
};

/// The crash a killed run models: thrown by the sink checkpointed()
/// installs, right after the halt_after-th checkpoint file is written.
struct Killed : std::runtime_error {
  Killed() : std::runtime_error("killed after a checkpoint write") {}
};

CampaignConfig checkpointed(CampaignConfig cfg, const std::string& directory,
                            const KillSpec& spec, std::size_t halt_after) {
  cfg.checkpoint.directory = directory;
  cfg.checkpoint.every_n_completions = spec.every_n_completions;
  if (halt_after > 0) {
    cfg.checkpoint.sink = [halt_after, writes = std::size_t{0}](
                              const CampaignCheckpoint&) mutable {
      if (++writes == halt_after) throw Killed();
    };
  }
  return cfg;
}

// The shared scenario: run uninterrupted (reference), kill a twin run
// after `spec.halt_after` checkpoints, resume from the file, compare.
void run_kill_resume(CampaignConfig (*make)(std::uint64_t),
                     std::uint64_t seed, const KillSpec& spec,
                     const std::string& ref_dir, const std::string& kill_dir,
                     bool observability = false) {
  const auto targets = targets2();

  auto ref_cfg = checkpointed(make(seed), ref_dir, spec, /*halt_after=*/0);
  ref_cfg.session.enable_tracing = observability;
  ref_cfg.session.enable_metrics = observability;
  const auto reference = Campaign(ref_cfg).run(targets);

  auto kill_cfg =
      checkpointed(make(seed), kill_dir, spec, spec.halt_after);
  kill_cfg.session.enable_tracing = observability;
  kill_cfg.session.enable_metrics = observability;
  EXPECT_THROW((void)Campaign(kill_cfg).run(targets), Killed);

  const auto checkpoint = load_checkpoint(kill_dir + "/checkpoint.json");
  EXPECT_GE(checkpoint.ordinal, spec.halt_after);

  auto resume_cfg = checkpointed(make(seed), kill_dir, spec, /*halt_after=*/0);
  resume_cfg.session.enable_tracing = observability;
  resume_cfg.session.enable_metrics = observability;
  const auto resumed = Campaign(resume_cfg).resume(targets, checkpoint);

  expect_identical(reference, resumed);
  if (observability) expect_identical_observability(reference, resumed);
}

TEST_F(CheckpointResume, DeterminismImRpKillAfterFirstCheckpoint) {
  run_kill_resume(im_rp_campaign, 42, {.every_n_completions = 4,
                                       .halt_after = 1},
                  dir("ref"), dir("kill"));
}

TEST_F(CheckpointResume, DeterminismImRpKillLate) {
  run_kill_resume(im_rp_campaign, 42, {.every_n_completions = 3,
                                       .halt_after = 4},
                  dir("ref"), dir("kill"));
}

TEST_F(CheckpointResume, DeterminismContVKillMidway) {
  run_kill_resume(cont_v_campaign, 42, {.every_n_completions = 5,
                                        .halt_after = 2},
                  dir("ref"), dir("kill"));
}

TEST_F(CheckpointResume, DeterminismPipelineCadence) {
  // A cut after every completion, killed at the first cut taken right
  // after a sub-pipeline or root retired. A snapshot's `state` is
  // Pipeline's State, in which 4 is kDone and 5 kTerminated.
  auto cfg = im_rp_campaign(7);
  cfg.checkpoint.every_n_completions = 1;
  std::uint64_t first_after_retire = 0;
  cfg.checkpoint.sink = [&](const CampaignCheckpoint& cut) {
    const auto& pipelines = cut.coordinator.pipelines;
    if (first_after_retire == 0 &&
        std::any_of(pipelines.begin(), pipelines.end(),
                    [](const Pipeline::Snapshot& p) { return p.state >= 4; }))
      first_after_retire = cut.ordinal;
  };
  (void)Campaign(cfg).run(targets2());
  ASSERT_GT(first_after_retire, 1u);

  run_kill_resume(im_rp_campaign, 7,
                  {.every_n_completions = 1, .halt_after = first_after_retire},
                  dir("ref"), dir("kill"));
}

TEST_F(CheckpointResume, DeterminismObservabilityContinuesSeamlessly) {
  // Trace span ids/seqs and metric totals of the resumed run must equal
  // the uninterrupted run's — including the checkpoint.write markers.
  run_kill_resume(im_rp_campaign, 42, {.every_n_completions = 4,
                                       .halt_after = 2},
                  dir("ref"), dir("kill"), /*observability=*/true);
}

TEST_F(CheckpointResume, DeterminismMetricsWhenAnotherThreadRecordedFirst) {
  // Restored metric totals and the observations made after the cut must
  // add up in the uninterrupted run's order whichever thread of the
  // process recorded a metric first: here a helper thread does, before
  // either campaign runs.
  obs::MetricsRegistry warmup(/*enabled=*/true);
  std::thread([&warmup] { warmup.counter("warmup")->inc(); }).join();

  const auto targets = targets2();
  auto cfg = im_rp_campaign(42);
  cfg.session.enable_metrics = true;
  cfg.checkpoint.every_n_completions = 5;
  std::vector<CampaignCheckpoint> cuts;
  auto reference_cfg = cfg;
  reference_cfg.checkpoint.sink = [&cuts](const CampaignCheckpoint& doc) {
    cuts.push_back(doc);
  };
  const auto reference = Campaign(reference_cfg).run(targets);
  ASSERT_GE(cuts.size(), 3u);

  cfg.checkpoint.sink = [](const CampaignCheckpoint&) {};
  const auto resumed = Campaign(cfg).resume(targets, cuts[cuts.size() / 2]);
  ASSERT_FALSE(reference.metrics.histograms.empty());
  ASSERT_EQ(resumed.metrics.histograms.size(),
            reference.metrics.histograms.size());
  for (std::size_t i = 0; i < reference.metrics.histograms.size(); ++i) {
    const auto& want = reference.metrics.histograms[i];
    const auto& got = resumed.metrics.histograms[i];
    EXPECT_EQ(got.sum, want.sum) << want.name << std::setprecision(17)
                                 << ": resumed " << got.sum
                                 << ", uninterrupted " << want.sum;
  }
  EXPECT_EQ(resumed.metrics, reference.metrics);
}

class CadenceSweep : public ::testing::TestWithParam<int> {};

TEST_P(CadenceSweep, DeterminismRandomizedBoundaries) {
  // Randomized (but seeded) cadence/kill-point combinations: the resume
  // contract cannot depend on where the cut happens to land.
  const auto base = fs::temp_directory_path() /
                    ("impress_sweep_" + std::to_string(GetParam()));
  fs::create_directories(base / "ref");
  fs::create_directories(base / "kill");
  std::uint64_t s = 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(
                                                GetParam() + 1);
  s ^= s >> 29;
  const KillSpec spec{.every_n_completions = 2 + s % 5,
                      .halt_after = 1 + (s >> 8) % 3};
  run_kill_resume(im_rp_campaign, 100 + static_cast<std::uint64_t>(GetParam()),
                  spec, (base / "ref").string(), (base / "kill").string());
  fs::remove_all(base);
}

INSTANTIATE_TEST_SUITE_P(Boundaries, CadenceSweep, ::testing::Range(0, 4));

// Campaign with a preemptible second pilot whose capacity is reclaimed
// mid-run for a 4-hour window (PR-2 eviction path in, PR-10 return path
// out). Evicted attempts retry on the durable pilot.
CampaignConfig spot_campaign(std::uint64_t seed) {
  auto cfg = im_rp_campaign(seed);
  cfg.protocol.spawn_subpipelines = false;
  cfg.extra_pilots.push_back(calibration::spot_pilot());
  cfg.session.faults.spot_reclaims.push_back(
      rp::SpotReclaim{.pilot_index = 1, .at_s = 7200.0, .down_s = 14400.0});
  cfg.coordinator.task_retry = rp::RetryPolicy{.max_attempts = 3,
                                               .backoff_initial_s = 30.0,
                                               .backoff_multiplier = 2.0,
                                               .backoff_jitter = 0.25,
                                               .attempt_timeout_s = 0.0};
  return cfg;
}

class SpotReclaimSweep : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    base_ = fs::temp_directory_path() /
            ("impress_spot_" + std::to_string(GetParam()));
    fs::create_directories(base_ / "ref");
    fs::create_directories(base_ / "kill");
  }
  void TearDown() override { fs::remove_all(base_); }
  fs::path base_;
};

TEST_P(SpotReclaimSweep, DeterminismKillResumeAcrossReclaimWindow) {
  // Sweep the kill point across the reclaim window's boundaries: cuts
  // land before the eviction, inside the outage (the spot pilot is
  // checkpointed FAILED and must reactivate on schedule after resume),
  // and after the capacity returns. Every resume must reproduce the
  // uninterrupted spot-reclaimed run bit for bit.
  const KillSpec spec{.every_n_completions = 3,
                      .halt_after = 1 + static_cast<std::size_t>(GetParam())};
  run_kill_resume(spot_campaign, 42, spec, (base_ / "ref").string(),
                  (base_ / "kill").string());
}

INSTANTIATE_TEST_SUITE_P(Window, SpotReclaimSweep, ::testing::Range(0, 3));

TEST_F(CheckpointResume, DeterminismSpotReclaimRunSurvivesAndRecovers) {
  // The uninterrupted spot-reclaimed run itself: one pilot failure, work
  // rerouted/retried, and the campaign completes with science recorded.
  const auto targets = targets2();
  const auto r = Campaign(spot_campaign(42)).run(targets);
  EXPECT_EQ(r.pilot_failures, 1u);
  EXPECT_GT(r.task_retries + r.task_requeues, 0u);
  EXPECT_GT(r.total_trajectories(), 0u);
}

TEST_F(CheckpointResume, DeterminismDoubleKillChainedResume) {
  // Crash, resume, crash again, resume again: ordinals keep counting and
  // the final result still matches the uninterrupted reference.
  const auto targets = targets2();
  const KillSpec spec{.every_n_completions = 3,
                      .halt_after = 1};

  const auto reference =
      Campaign(checkpointed(im_rp_campaign(42), dir("ref"), spec, 0))
          .run(targets);

  const auto kill_dir = dir("kill");
  EXPECT_THROW(
      (void)Campaign(checkpointed(im_rp_campaign(42), kill_dir, spec, 1))
          .run(targets),
      Killed);
  const auto first = load_checkpoint(kill_dir + "/checkpoint.json");
  EXPECT_EQ(first.ordinal, 1u);

  // Resume, but crash again after one more checkpoint.
  EXPECT_THROW(
      (void)Campaign(checkpointed(im_rp_campaign(42), kill_dir, spec, 1))
          .resume(targets, first),
      Killed);
  const auto second = load_checkpoint(kill_dir + "/checkpoint.json");
  EXPECT_GE(second.ordinal, 2u);
  EXPECT_GT(second.now, first.now);

  const auto resumed =
      Campaign(checkpointed(im_rp_campaign(42), kill_dir, spec, 0))
          .resume(targets, second);
  expect_identical(reference, resumed);
}

TEST_F(CheckpointResume, DeterminismFaultyCampaignKillAndResume) {
  // Checkpoint/restart composed with fault injection: retries, timeouts
  // and requeues before the cut are part of the checkpointed state.
  auto make_faulty = [](std::uint64_t seed) {
    auto cfg = im_rp_campaign(seed);
    cfg.session.faults.task_failure_rate = 0.08;
    cfg.coordinator.task_retry.max_attempts = 3;
    return cfg;
  };
  const auto targets = targets2();
  const KillSpec spec{.every_n_completions = 4,
                      .halt_after = 2};

  auto ref_cfg = checkpointed(make_faulty(9), dir("ref"), spec, 0);
  const auto reference = Campaign(ref_cfg).run(targets);
  EXPECT_GT(reference.task_retries + reference.fold_retries, 0u)
      << "fault rate too low to exercise the retry path";

  EXPECT_THROW((void)Campaign(checkpointed(make_faulty(9), dir("kill"), spec,
                                           spec.halt_after))
                   .run(targets),
               Killed);
  const auto checkpoint = load_checkpoint(dir("kill") + "/checkpoint.json");
  const auto resumed =
      Campaign(checkpointed(make_faulty(9), dir("kill"), spec, 0))
          .resume(targets, checkpoint);
  expect_identical(reference, resumed);
}

TEST_F(CheckpointResume, CrashDuringCheckpointWriteLeavesPreviousLoadable) {
  // A crash in the middle of writing checkpoint N must leave checkpoint
  // N-1 intact — and resuming from it still reproduces the reference.
  const auto targets = targets2();
  const KillSpec spec{.every_n_completions = 3,
                      .halt_after = 0};

  const auto reference =
      Campaign(checkpointed(im_rp_campaign(42), dir("ref"), spec, 0))
          .run(targets);

  const auto kill_dir = dir("kill");
  int writes = 0;
  common::set_atomic_write_test_hook([&writes](const std::string&) {
    if (++writes == 2) throw std::runtime_error("killed mid-write");
  });
  EXPECT_THROW((void)Campaign(checkpointed(im_rp_campaign(42), kill_dir, spec,
                                           0))
                   .run(targets),
               std::runtime_error);
  common::set_atomic_write_test_hook(nullptr);

  const auto checkpoint = load_checkpoint(kill_dir + "/checkpoint.json");
  EXPECT_EQ(checkpoint.ordinal, 1u) << "the torn write must not be visible";

  const auto resumed =
      Campaign(checkpointed(im_rp_campaign(42), kill_dir, spec, 0))
          .resume(targets, checkpoint);
  expect_identical(reference, resumed);
}

TEST_F(CheckpointResume, ResumeValidatesConfigMatch) {
  const auto targets = targets2();
  const KillSpec spec{.every_n_completions = 3,
                      .halt_after = 1};
  EXPECT_THROW(
      (void)Campaign(checkpointed(im_rp_campaign(42), dir("kill"), spec, 1))
          .run(targets),
      Killed);
  const auto checkpoint = load_checkpoint(dir("kill") + "/checkpoint.json");

  // Wrong campaign name.
  EXPECT_THROW((void)Campaign(cont_v_campaign(42)).resume(targets, checkpoint),
               std::invalid_argument);
  // Wrong seed.
  EXPECT_THROW((void)Campaign(im_rp_campaign(43)).resume(targets, checkpoint),
               std::invalid_argument);
  // Wrong target set size.
  std::vector<protein::DesignTarget> one;
  one.push_back(
      protein::make_target("DET-A", 86, protein::alpha_synuclein().tail(10)));
  EXPECT_THROW((void)Campaign(im_rp_campaign(42)).resume(one, checkpoint),
               std::invalid_argument);
  // Renamed target.
  auto renamed = targets2();
  renamed[1].name = "SOMETHING-ELSE";
  EXPECT_THROW((void)Campaign(im_rp_campaign(42)).resume(renamed, checkpoint),
               std::invalid_argument);
}

}  // namespace
}  // namespace impress::core
