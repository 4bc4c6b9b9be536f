// GPU batching accounting (hpc/analytics.hpp): the cost model, the
// linger/flush/size rules of the batching state machine, the adaptive
// tuner, and the offline replay over traced campaigns. The golden
// expectations below are what the live inference server the replay
// replaced reported for the same seeded campaigns; every field must match
// exactly, doubles included.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/campaign.hpp"
#include "hpc/analytics.hpp"
#include "protein/datasets.hpp"

namespace impress::hpc {
namespace {

/// Bench-grade cost model: setup 6x the per-item cost, so a full batch of
/// 8 models the classic 56/14 = 4x gain.
BatchingConfig toy_config(std::uint32_t max_batch = 8) {
  BatchingConfig cfg;
  cfg.policy = BatchPolicy{.max_batch = max_batch, .max_linger_s = 600.0};
  cfg.fold_cost = GpuCostModel{.setup_s = 6.0, .per_item_s = 1.0};
  cfg.design_cost = GpuCostModel{.setup_s = 6.0, .per_item_s = 1.0};
  return cfg;
}

TEST(GpuCostModelTest, BatchLatencyIsSetupPlusLinear) {
  const GpuCostModel m{.setup_s = 6.0, .per_item_s = 1.0};
  EXPECT_DOUBLE_EQ(m.batch_latency_s(0), 0.0);
  EXPECT_DOUBLE_EQ(m.batch_latency_s(1), 7.0);
  EXPECT_DOUBLE_EQ(m.batch_latency_s(8), 14.0);
  // A 2x-faster GPU generation halves the whole dispatch.
  EXPECT_DOUBLE_EQ(m.batch_latency_s(8, 2.0), 7.0);
}

TEST(BatchAccountantTest, FullBatchesModelFourXSpeedupAtEight) {
  BatchAccountant acc(toy_config(8));
  for (int i = 0; i < 16; ++i) acc.design_request(0.0);
  const auto rep = acc.report();
  EXPECT_EQ(rep.design.requests, 16u);
  EXPECT_EQ(rep.design.batches, 2u);
  EXPECT_EQ(rep.design.max_batch, 8u);
  EXPECT_DOUBLE_EQ(rep.design.batched_gpu_s, 2.0 * 14.0);
  EXPECT_DOUBLE_EQ(rep.design.unbatched_gpu_s, 16.0 * 7.0);
  EXPECT_DOUBLE_EQ(rep.design.speedup(), 4.0);
}

TEST(BatchAccountantTest, LingerExpiryClosesAStaleBatch) {
  BatchAccountant acc(toy_config(8));
  for (int i = 0; i < 3; ++i) acc.design_request(0.0);
  // Arrives 1000 s after the open batch's first member (> 600 s linger):
  // the stale batch of 3 is dispatched, this request starts the next one.
  acc.design_request(1000.0);
  const auto rep = acc.report();
  EXPECT_EQ(rep.design.batches, 2u);  // closed(3) + flushed open(1)
  EXPECT_EQ(rep.design.max_batch, 3u);
  EXPECT_DOUBLE_EQ(rep.design.batched_gpu_s, (6.0 + 3.0) + (6.0 + 1.0));
}

TEST(BatchAccountantTest, ReportFlushDoesNotMutateLiveAccounting) {
  BatchAccountant acc(toy_config(8));
  for (int i = 0; i < 3; ++i) acc.design_request(0.0);
  const auto a = acc.report();
  const auto b = acc.report();
  EXPECT_EQ(a.design.batches, b.design.batches);
  EXPECT_DOUBLE_EQ(a.design.batched_gpu_s, b.design.batched_gpu_s);
  // The open batch keeps filling after a report.
  for (int i = 0; i < 5; ++i) acc.design_request(0.0);
  const auto c = acc.report();
  EXPECT_EQ(c.design.batches, 1u);
  EXPECT_EQ(c.design.max_batch, 8u);
}

TEST(BatchAccountantTest, SpeedFactorDividesModeledLatency) {
  auto cfg = toy_config(8);
  cfg.speed_factor = 2.0;
  BatchAccountant acc(cfg);
  for (int i = 0; i < 8; ++i) acc.design_request(0.0);
  const auto rep = acc.report();
  EXPECT_DOUBLE_EQ(rep.design.batched_gpu_s, 7.0);
  EXPECT_DOUBLE_EQ(rep.design.unbatched_gpu_s, 8.0 * 3.5);
  // The speedup ratio is speed-factor invariant.
  EXPECT_DOUBLE_EQ(rep.design.speedup(), 4.0);
}

TEST(BatchAccountantTest, FoldRequestsShareADispatch) {
  BatchAccountant acc(toy_config(8));
  acc.fold_request(0.0);
  acc.fold_request(10.0);
  const auto rep = acc.report();
  EXPECT_EQ(rep.fold.requests, 2u);
  EXPECT_EQ(rep.fold.batches, 1u);  // both within the linger window
  EXPECT_EQ(rep.fold.max_batch, 2u);
  EXPECT_DOUBLE_EQ(rep.fold.unbatched_gpu_s, 14.0);
}

TEST(BatchAccountantTest, RejectsEmptyBatchesAndStoppedGpus) {
  EXPECT_THROW(BatchAccountant{toy_config(0)}, std::invalid_argument);
  auto cfg = toy_config(8);
  cfg.speed_factor = 0.0;
  EXPECT_THROW(BatchAccountant{cfg}, std::invalid_argument);
}

TEST(BatchTunerTest, PicksLargestBatchThatFillsWithinLinger) {
  BatchTuner tuner(
      BatchTuner::Config{
          .ewma_alpha = 1.0, .min_batch = 1, .max_batch = 16,
          .max_linger_s = 600.0},
      /*initial_batch=*/8);
  EXPECT_FALSE(tuner.observe(0.0).has_value());  // first sample: no gap yet
  // Completions every 100 s: 1 + floor(600/100) = 7.
  const auto first = tuner.observe(100.0);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, 7u);
  EXPECT_FALSE(tuner.observe(200.0).has_value());  // steady cadence: no change
  // Cadence collapses to simultaneous completions: saturate at max.
  (void)tuner.observe(200.0);
  EXPECT_EQ(tuner.batch_size(), 16u);
  EXPECT_EQ(tuner.decisions(), 2u);
}

TEST(BatchTunerTest, DecisionsAreDeterministicInTheTimestamps) {
  const auto run = [] {
    BatchTuner tuner(BatchTuner::Config{}, 8);
    std::vector<std::uint32_t> sizes;
    for (int i = 0; i < 50; ++i) {
      const double t = 37.0 * i + (i % 7) * 11.0;
      if (const auto b = tuner.observe(t)) sizes.push_back(*b);
    }
    sizes.push_back(tuner.batch_size());
    return sizes;
  };
  EXPECT_EQ(run(), run());
}

TEST(BatchAccountantTest, NonAdaptiveIgnoresCompletions) {
  BatchAccountant acc(toy_config(8));
  for (int i = 0; i < 10; ++i) acc.fold_completion(100.0 * i);
  EXPECT_EQ(acc.report().tuner_decisions, 0u);
  EXPECT_EQ(acc.report().batch_size, 8u);
}

TEST(BatchAccountantTest, AdaptiveAppliesTunedSizeToLaterBatches) {
  auto cfg = toy_config(8);
  cfg.adaptive = true;
  cfg.tuner = BatchTuner::Config{.ewma_alpha = 1.0,
                                 .min_batch = 1,
                                 .max_batch = 16,
                                 .max_linger_s = 200.0};
  BatchAccountant acc(cfg);
  // Completions every 100 s: tuned size 1 + floor(200/100) = 3.
  acc.fold_completion(0.0);
  acc.fold_completion(100.0);
  for (int i = 0; i < 6; ++i) acc.design_request(0.0);
  const auto rep = acc.report();
  EXPECT_EQ(rep.batch_size, 3u);
  EXPECT_EQ(rep.design.batches, 2u);
  EXPECT_EQ(rep.design.max_batch, 3u);
  EXPECT_EQ(rep.tuner_decisions, 1u);
}

TEST(SlowestGpuSpeed, MinimumOverGpuNodesOnly) {
  const auto nodes = make_cluster(4);  // gpu 3.0, amarel 1.0, two CPU-only
  EXPECT_EQ(slowest_gpu_speed(nodes), 1.0);
  EXPECT_EQ(slowest_gpu_speed({nodes[0]}), 3.0);
  EXPECT_EQ(slowest_gpu_speed({nodes[2], nodes[3]}), 1.0);  // no GPUs
}

// --- Replay over traced campaigns -----------------------------------------

std::vector<protein::DesignTarget> targets2() {
  std::vector<protein::DesignTarget> out;
  out.push_back(
      protein::make_target("DET-A", 86, protein::alpha_synuclein().tail(10)));
  out.push_back(
      protein::make_target("DET-B", 90, protein::alpha_synuclein().tail(10)));
  return out;
}

/// What the live server reported for one stream, and for a whole run.
struct Stream {
  std::uint64_t requests, batches;
  std::uint32_t max_batch;
  double batched_gpu_s, unbatched_gpu_s;
};
struct Golden {
  Stream fold, design;
  std::uint32_t batch_size;
  std::uint64_t tuner_decisions;
};

void expect_stream(const StreamStats& got, const Stream& want) {
  EXPECT_EQ(got.requests, want.requests);
  EXPECT_EQ(got.batches, want.batches);
  EXPECT_EQ(got.max_batch, want.max_batch);
  EXPECT_EQ(got.batched_gpu_s, want.batched_gpu_s);
  EXPECT_EQ(got.unbatched_gpu_s, want.unbatched_gpu_s);
}

void expect_golden(const BatchingReport& got, const Golden& want) {
  expect_stream(got.fold, want.fold);
  expect_stream(got.design, want.design);
  EXPECT_EQ(got.batch_size, want.batch_size);
  EXPECT_EQ(got.tuner_decisions, want.tuner_decisions);
}

/// Replay a traced run of `cfg` with the default cost models, the
/// campaign's slowest GPU, and the given batching knobs.
BatchingReport replay(core::CampaignConfig cfg, std::uint32_t max_batch,
                      bool adaptive) {
  cfg.session.enable_tracing = true;
  const auto result = core::Campaign(cfg).run(targets2());
  BatchingConfig batching;
  batching.policy.max_batch = max_batch;
  batching.adaptive = adaptive;
  batching.speed_factor = slowest_gpu_speed(cfg.pilot.nodes);
  return replay_batching(result.trace, batching);
}

TEST(BatchingReplay, GoldenBatchSizesAndTuner) {
  const Stream fold1{15, 15, 1, 32400, 32400};
  const struct {
    std::uint32_t max_batch;
    bool adaptive;
    Golden want;
  } cases[] = {
      {1, false, {fold1, {12, 12, 1, 5040, 5040}, 1, 0}},
      {1, true, {fold1, {12, 12, 1, 5040, 5040}, 1, 0}},
      {8, false,
       {{15, 14, 2, 32040, 32400}, {12, 8, 2, 4800, 5040}, 8, 0}},
      {8, true, {fold1, {12, 11, 2, 4980, 5040}, 1, 1}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(testing::Message() << "max_batch " << c.max_batch
                                    << " adaptive " << c.adaptive);
    expect_golden(replay(core::im_rp_campaign(42), c.max_batch, c.adaptive),
                  c.want);
  }
}

TEST(BatchingReplay, GoldenFaultyRunWithRetries) {
  // Injected crashes stop an attempt before its work runs: retried
  // attempts request again, crashed ones never did.
  auto cfg = core::im_rp_campaign(42);
  cfg.session.faults.task_failure_rate = 0.25;
  cfg.coordinator.task_retry.max_attempts = 3;
  expect_golden(replay(cfg, 8, false), {{15, 15, 1, 32400, 32400},
                                        {12, 9, 2, 4860, 5040}, 8, 0});
}

TEST(BatchingReplay, GoldenFasterGpuGeneration) {
  auto cfg = core::im_rp_campaign(42);
  for (auto& node : cfg.pilot.nodes) node.gpu_speed_factor = 2.5;
  expect_golden(replay(cfg, 8, false), {{15, 14, 2, 12816, 12960},
                                        {12, 8, 2, 1920, 2016}, 8, 0});
}

TEST(BatchingReplay, CountsEveryFoldAndGeneratorTask) {
  auto cfg = core::im_rp_campaign(42);
  cfg.session.enable_tracing = true;
  const auto result = core::Campaign(cfg).run(targets2());
  const auto r = replay_batching(result.trace, BatchingConfig{});
  EXPECT_EQ(r.fold.requests, result.fold_tasks);
  EXPECT_EQ(r.design.requests, result.generator_tasks);
}

}  // namespace
}  // namespace impress::hpc
