// Determinism: the entire evaluation — tasks, timing, science — is a pure
// function of the seed in simulated mode. This is what makes every figure
// in EXPERIMENTS.md regenerable bit-for-bit.

#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/campaign.hpp"
#include "core/report.hpp"
#include "core/session_dump.hpp"
#include "common/json.hpp"
#include "hpc/analytics.hpp"
#include "hpc/gantt.hpp"
#include "protein/datasets.hpp"
#include "runtime/session.hpp"

namespace impress::core {
namespace {

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
      EXPECT_DOUBLE_EQ(ta.history[j].metrics.plddt, tb.history[j].metrics.plddt);
      EXPECT_DOUBLE_EQ(ta.history[j].metrics.ptm, tb.history[j].metrics.ptm);
      EXPECT_DOUBLE_EQ(ta.history[j].metrics.ipae, tb.history[j].metrics.ipae);
      EXPECT_DOUBLE_EQ(ta.history[j].true_fitness, tb.history[j].true_fitness);
    }
  }
  EXPECT_DOUBLE_EQ(a.makespan_h, b.makespan_h);
  EXPECT_DOUBLE_EQ(a.utilization.cpu_active, b.utilization.cpu_active);
  EXPECT_DOUBLE_EQ(a.utilization.gpu_active, b.utilization.gpu_active);
  EXPECT_EQ(a.fold_tasks, b.fold_tasks);
  EXPECT_EQ(a.fold_retries, b.fold_retries);
  EXPECT_EQ(a.subpipelines, b.subpipelines);
  // Fields derived from the lifecycle marks.
  EXPECT_EQ(a.phase_hours, b.phase_hours);
  EXPECT_EQ(a.gantt, b.gantt);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.pilot_failures, b.pilot_failures);
}

TEST(Determinism, ImRpBitIdenticalAcrossRuns) {
  const auto targets = targets2();
  const auto a = Campaign(im_rp_campaign(42)).run(targets);
  const auto b = Campaign(im_rp_campaign(42)).run(targets);
  expect_identical(a, b);
}

TEST(Determinism, ContVBitIdenticalAcrossRuns) {
  const auto targets = targets2();
  const auto a = Campaign(cont_v_campaign(42)).run(targets);
  const auto b = Campaign(cont_v_campaign(42)).run(targets);
  expect_identical(a, b);
}

TEST(Determinism, IndependentOfOtherCampaignsInProcess) {
  // Running an unrelated campaign in between must not perturb anything —
  // there is no hidden global state.
  const auto targets = targets2();
  const auto a = Campaign(im_rp_campaign(42)).run(targets);
  const auto other_targets = protein::pdz_benchmark(3);
  (void)Campaign(im_rp_campaign(1234)).run(other_targets);
  const auto b = Campaign(im_rp_campaign(42)).run(targets);
  expect_identical(a, b);
}

TEST(Determinism, DatasetsAreStableAcrossProcessRuns) {
  // Locked golden values: if these change, every number in
  // EXPERIMENTS.md silently shifts. Deliberate recalibrations must update
  // this test and the docs together.
  const auto targets = protein::four_pdz_domains();
  EXPECT_EQ(targets[0].name, "NHERF3");
  const auto f0 = targets[0].landscape.fitness(targets[0].start_receptor);
  const auto f0_again =
      protein::four_pdz_domains()[0].landscape.fitness(targets[0].start_receptor);
  EXPECT_DOUBLE_EQ(f0, f0_again);
}

TEST(Determinism, TracingOnOffBitIdentical) {
  // Observability must be a pure observer: switching the tracer on cannot
  // perturb a single result field (spans are recorded strictly after the
  // rng draws they bracket, and never feed back into the run).
  const auto targets = targets2();
  auto traced_cfg = im_rp_campaign(42);
  traced_cfg.session.enable_tracing = true;
  const auto traced = Campaign(traced_cfg).run(targets);
  const auto untraced = Campaign(im_rp_campaign(42)).run(targets);
  expect_identical(traced, untraced);
  EXPECT_FALSE(traced.trace.empty());
  EXPECT_TRUE(untraced.trace.empty());
}

TEST(Determinism, MetricsOnOffBitIdentical) {
  const auto targets = targets2();
  auto metered_cfg = im_rp_campaign(42);
  metered_cfg.session.enable_metrics = true;
  const auto metered = Campaign(metered_cfg).run(targets);
  const auto plain = Campaign(im_rp_campaign(42)).run(targets);
  expect_identical(metered, plain);
  EXPECT_FALSE(metered.metrics.empty());
  // The counters must agree with the independently-kept workload tallies.
  EXPECT_EQ(metered.metrics.counter("impress_stage_fold"),
            metered.fold_tasks);
  EXPECT_EQ(metered.metrics.counter("impress_subpipelines_spawned"),
            metered.subpipelines);
  EXPECT_TRUE(plain.metrics.empty());
}

TEST(Determinism, FullObservabilityOnOffBitIdentical) {
  // Both axes at once, threaded against the sequential control arm too.
  const auto targets = targets2();
  for (auto make : {im_rp_campaign, cont_v_campaign}) {
    auto on_cfg = make(42);
    on_cfg.session.enable_tracing = true;
    on_cfg.session.enable_metrics = true;
    const auto on = Campaign(on_cfg).run(targets);
    const auto off = Campaign(make(42)).run(targets);
    expect_identical(on, off);
  }
}

TEST(Determinism, SpotPreemptionScheduleUnobservableInScience) {
  // Same two-pilot campaign with and without a spot-reclaim window on the
  // preemptible pilot: timing shifts (evictions, retries, a 4h capacity
  // hole) but the science is bit-identical — fold rngs are derived from
  // task *content*, so a re-attempted fold recomputes exactly what the
  // evicted attempt would have produced, and with independent pipelines
  // each trajectory depends only on its own stage results.
  const auto targets = targets2();
  auto make = [](bool reclaim) {
    auto cfg = im_rp_campaign(42);
    cfg.protocol.spawn_subpipelines = false;
    cfg.extra_pilots.push_back(calibration::spot_pilot());
    cfg.coordinator.task_retry = rp::RetryPolicy{.max_attempts = 3,
                                                 .backoff_initial_s = 30.0,
                                                 .backoff_multiplier = 2.0,
                                                 .backoff_jitter = 0.25,
                                                 .attempt_timeout_s = 0.0};
    if (reclaim)
      cfg.session.faults.spot_reclaims.push_back(
          rp::SpotReclaim{.pilot_index = 1, .at_s = 7200.0, .down_s = 14400.0});
    return cfg;
  };
  const auto calm = Campaign(make(false)).run(targets);
  const auto preempted = Campaign(make(true)).run(targets);
  ASSERT_EQ(calm.trajectories.size(), preempted.trajectories.size());
  for (std::size_t i = 0; i < calm.trajectories.size(); ++i) {
    const auto& ta = calm.trajectories[i];
    const auto& tb = preempted.trajectories[i];
    EXPECT_EQ(ta.pipeline_id, tb.pipeline_id);
    ASSERT_EQ(ta.history.size(), tb.history.size());
    for (std::size_t j = 0; j < ta.history.size(); ++j) {
      EXPECT_EQ(ta.history[j].sequence, tb.history[j].sequence);
      EXPECT_DOUBLE_EQ(ta.history[j].metrics.plddt,
                       tb.history[j].metrics.plddt);
      EXPECT_DOUBLE_EQ(ta.history[j].metrics.ptm, tb.history[j].metrics.ptm);
      EXPECT_DOUBLE_EQ(ta.history[j].metrics.ipae,
                       tb.history[j].metrics.ipae);
    }
  }
  // The preemption is visible in the *computational* record, as it
  // should be — only the science is invariant.
  EXPECT_EQ(calm.pilot_failures, 0u);
  EXPECT_EQ(preempted.pilot_failures, 1u);
}

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, EverySeedIsSelfConsistent) {
  const auto targets = targets2();
  const auto a = Campaign(im_rp_campaign(GetParam())).run(targets);
  const auto b = Campaign(im_rp_campaign(GetParam())).run(targets);
  expect_identical(a, b);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, ::testing::Values(1u, 7u, 99u));

// FNV-1a 64 (the constants perfbench's digest uses).
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t dump_digest(const CampaignResult& r) {
  return fnv1a(to_json(r).dump());
}

TEST(Determinism, SessionDumpDigestsAtSeed5) {
  // Golden outputs: the whole session dump of four seed-5 campaigns (one
  // traced and metered) and one mid-run checkpoint document, pinned to the
  // committed code. A change to scheduling, decision-making or the science
  // that moves a single byte of a dump fails here; a deliberate change
  // re-records the digests and says why.
  auto fig3 = im_rp_campaign(5);
  fig3.protocol.adaptivity_in_final_cycle = false;
  fig3.protocol.max_subpipelines_per_target = 1;
  const auto fig3_280 = Campaign(fig3).run(protein::pdz_benchmark(280));
  EXPECT_EQ(fig3_280.fold_tasks, 2419u);
  EXPECT_EQ(dump_digest(fig3_280), 0xeb45c9bb3e616902ULL);

  const auto imrp_70 = Campaign(im_rp_campaign(5)).run(protein::pdz_benchmark(70));
  EXPECT_EQ(imrp_70.fold_tasks, 924u);
  EXPECT_EQ(dump_digest(imrp_70), 0x64fc331c572c9879ULL);

  const auto contv_70 =
      Campaign(cont_v_campaign(5)).run(protein::pdz_benchmark(70));
  EXPECT_EQ(contv_70.fold_tasks, 280u);
  EXPECT_EQ(dump_digest(contv_70), 0x67b66f9fd9810fe0ULL);

  // Traced and metered, with a checkpoint cut every 20 completions: pins
  // the span, metric and checkpoint bytes next to the untraced dumps. The
  // sink runs right after save_checkpoint, so it digests both the tree
  // and the file the campaign wrote (less its trailing newline). One
  // directory per process: ctest runs tests as parallel processes.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("impress_determinism_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  auto observed = im_rp_campaign(5);
  observed.session.enable_tracing = true;
  observed.session.enable_metrics = true;
  observed.checkpoint.directory = dir.string();
  observed.checkpoint.every_n_completions = 20;
  std::vector<std::uint64_t> cuts;
  std::vector<std::uint64_t> files;
  observed.checkpoint.sink = [&cuts, &files,
                              path = observed.checkpoint.path()](
                                 const CampaignCheckpoint& doc) {
    cuts.push_back(fnv1a(to_json(doc).dump()));
    std::ifstream is(path, std::ios::binary);
    std::string text{std::istreambuf_iterator<char>(is), {}};
    EXPECT_TRUE(!text.empty() && text.back() == '\n');
    if (!text.empty()) text.pop_back();
    files.push_back(fnv1a(text));
  };
  const auto observed_8 = Campaign(observed).run(protein::pdz_benchmark(8));
  std::filesystem::remove_all(dir);
  EXPECT_EQ(observed_8.fold_tasks, 90u);
  EXPECT_EQ(dump_digest(observed_8), 0xf131290f2764441fULL);
  ASSERT_EQ(cuts.size(), 5u);
  ASSERT_EQ(files.size(), 5u);
  EXPECT_EQ(cuts[2], 0x472d8feef560b635ULL);  // the middle cut
  EXPECT_EQ(files[2], 0x472d8feef560b635ULL);
}

// Bit pattern of a double, in hex: the reader digests below pin exact
// sums, not values within a tolerance.
std::string bits(double x) {
  char buf[17];
  std::snprintf(
      buf, sizeof buf, "%016llx",
      static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(x)));
  return buf;
}

// The lifecycle marks of one faulty IM-RP campaign at seed 5: injected
// task failures retried up to three attempts, stragglers evicted by the
// attempt deadline, and a spot pilot reclaimed and returned mid-run. Here
// a task can stop more than once and be submitted more than once, which
// no fault-free digest above covers. Run through the raw layers, as
// bench_fig5 does, so the marks stay in scope.
std::vector<obs::Mark> faulty_campaign_marks() {
  auto config = im_rp_campaign(5);
  config.session.faults.task_failure_rate = 0.10;
  config.session.faults.slow_task_rate = 0.05;
  config.session.faults.spot_reclaims.push_back(
      rp::SpotReclaim{.pilot_index = 1, .at_s = 7200.0, .down_s = 14400.0});
  config.coordinator.task_retry =
      rp::RetryPolicy{.max_attempts = 3,
                      .backoff_initial_s = 30.0,
                      .backoff_multiplier = 2.0,
                      .backoff_jitter = 0.25,
                      .attempt_timeout_s = 30000.0};
  const auto targets = protein::pdz_benchmark(12);
  rp::Session session(config.session);
  (void)session.submit_pilot(config.pilot);
  (void)session.submit_pilot(calibration::spot_pilot());
  Coordinator coordinator(session, config.coordinator);
  const auto generator = std::make_shared<MpnnGenerator>(config.sampler);
  for (const auto& target : targets)
    coordinator.add_pipeline(std::make_unique<Pipeline>(
        target.name, target, target.start_complex(), config.protocol,
        generator, fold::AlphaFold(config.predictor),
        session.fork_rng("pipeline." + target.name)));
  coordinator.run();
  return session.observability().tracer().marks();
}

TEST(Determinism, FaultyCampaignReaderDigestsAtSeed5) {
  // Every hpc lifecycle-mark reader on the faulty campaign.
  const auto marks = faulty_campaign_marks();
  std::set<std::string, std::less<>> seen;
  for (const auto& m : marks) seen.insert(m.event);
  const hpc::TaskTable table = hpc::tabulate(marks);
  for (const std::string_view event :
       {hpc::events::kRetry, hpc::events::kTimeout, hpc::events::kRequeue,
        hpc::events::kPilotFailed, hpc::events::kPilotReactivated})
    EXPECT_TRUE(seen.contains(event)) << event;

  std::string phases;
  for (const auto& [phase, seconds] : hpc::phase_durations(table))
    phases += phase + '=' + bits(seconds) + '\n';
  std::string attempts;
  for (const auto& [uid, n] : hpc::attempt_counts(table))
    attempts += uid + '=' + std::to_string(n) + '\n';
  const auto retry = hpc::summarize_retries(table);
  const std::string retries =
      std::to_string(retry.retries) + ' ' + std::to_string(retry.timeouts) +
      ' ' + std::to_string(retry.requeues) + ' ' +
      std::to_string(retry.pilot_failures) + ' ' +
      std::to_string(retry.tasks_retried) + ' ' +
      std::to_string(retry.max_attempts);
  std::string timings;
  for (const auto& t : hpc::task_timings(table))
    timings += t.uid + ' ' + bits(t.wait) + ' ' + bits(t.setup) + ' ' +
               bits(t.run) + '\n';
  const auto summary = hpc::summarize_timings(table);
  const std::string summary_text =
      std::to_string(summary.tasks) + ' ' + bits(summary.mean_wait) + ' ' +
      bits(summary.p95_wait) + ' ' + bits(summary.mean_setup) + ' ' +
      bits(summary.mean_run) + ' ' + bits(summary.overhead_fraction);
  std::string series;
  for (const double v : hpc::concurrency_series(table, 64))
    series += bits(v) + '\n';

  // Pinned: a reader change that moves any of these bytes fails here.
  EXPECT_EQ(marks.size(), 2127u);
  EXPECT_EQ(retries, "74 56 4 1 55 3");
  EXPECT_EQ(hpc::peak_concurrency(table), 8u);
  EXPECT_EQ(fnv1a(phases), 0xab853fd06d23e668ULL);
  EXPECT_EQ(fnv1a(hpc::render_gantt(table)), 0xcd365562418e9542ULL);
  EXPECT_EQ(fnv1a(hpc::render_gantt(table, 0.0, {.max_rows = 1u << 20})),
            0x4dc1151929d123aeULL);
  EXPECT_EQ(fnv1a(attempts), 0x374896740470f957ULL);
  EXPECT_EQ(fnv1a(timings), 0x3efb4c8f588ee79fULL);
  EXPECT_EQ(fnv1a(summary_text), 0x070dc05bf850266fULL);
  EXPECT_EQ(fnv1a(series), 0x48c5bda33b40432fULL);
}

TEST(Determinism, FaultyCampaignTimingsStayWithinOneAttempt) {
  // A retried task's exec_start pairs with its own attempt's exec_stop.
  // task.000021's first attempt hit its deadline in exec setup (an
  // exec_stop at 31080 s with no exec_start); its second ran from
  // 36100.9 s to 41360.7 s.
  const hpc::TaskTable table = hpc::tabulate(faulty_campaign_marks());
  const auto timings = hpc::task_timings(table);
  ASSERT_FALSE(timings.empty());
  const hpc::TaskTiming* retried = nullptr;
  for (const auto& t : timings) {
    EXPECT_GE(t.wait, 0.0) << t.uid;
    EXPECT_GE(t.setup, 0.0) << t.uid;
    EXPECT_GE(t.run, 0.0) << t.uid;
    if (t.uid == "task.000021") retried = &t;
  }
  ASSERT_NE(retried, nullptr);
  EXPECT_NEAR(retried->run, 41360.7 - 36100.9, 0.1);
}

}  // namespace
}  // namespace impress::core
