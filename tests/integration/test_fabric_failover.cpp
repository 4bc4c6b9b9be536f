// Fabric failover determinism (ISSUE 9): a seeded multi-worker campaign
// over the loopback transport — including injected worker deaths, frame
// chaos, double failures, and a coordinator restart — must produce a
// CampaignResult bit-identical to the same-seed single-process baseline.
//
// The baseline is core::run_sharded (each shard an independent campaign,
// folded by merge_shard_results); for a single shard the merge is the
// identity, so the distributed result also equals plain Campaign::run.
// Bit-identity is pinned by comparing full session dumps: the dump
// serializes every result field with %.17g doubles, so equal strings
// mean equal bytes everywhere it matters.
//
// Suite name carries "Determinism" so the flake detector's seed-stability
// sweep picks these up.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/session_dump.hpp"
#include "core/shard.hpp"
#include "net/fabric.hpp"
#include "protein/datasets.hpp"

namespace impress::net {
namespace {

std::vector<protein::DesignTarget> targets4() {
  std::vector<protein::DesignTarget> out;
  out.push_back(
      protein::make_target("DET-A", 86, protein::alpha_synuclein().tail(10)));
  out.push_back(
      protein::make_target("DET-B", 90, protein::alpha_synuclein().tail(10)));
  out.push_back(
      protein::make_target("DET-C", 77, protein::alpha_synuclein().tail(10)));
  out.push_back(
      protein::make_target("DET-D", 93, protein::alpha_synuclein().tail(10)));
  return out;
}

std::string dump_of(const core::CampaignResult& r) {
  return core::to_json(r).dump();
}

core::CampaignResult sharded_baseline(const core::CampaignConfig& config,
                                      const std::vector<protein::DesignTarget>&
                                          targets,
                                      std::size_t num_shards,
                                      std::size_t checkpoint_every) {
  return core::run_sharded(config, targets,
                           core::ShardPlan::contiguous(targets, num_shards),
                           checkpoint_every);
}

void expect_conserved(const FabricStats& s) {
  EXPECT_EQ(s.submits_opened,
            s.submits_closed_result + s.submits_closed_death + s.submits_open());
  EXPECT_EQ(s.submits_open(), 0u) << "a finished campaign leaves nothing open";
}

TEST(FabricDeterminism, SingleShardMatchesSingleProcess) {
  // The ISSUE's headline criterion: one shard, no cadence — the fabric
  // result IS the plain single-process Campaign::run, bit for bit.
  const auto targets = targets4();
  const auto config = core::im_rp_campaign(42);

  DistributedConfig dc;
  dc.fabric.campaign = config;
  dc.num_workers = 1;
  dc.num_shards = 1;
  const DistributedOutcome out = run_distributed(dc, targets);

  const auto plain = core::Campaign(config).run(targets);
  EXPECT_EQ(dump_of(out.result), dump_of(plain));
  expect_conserved(out.stats);
}

TEST(FabricDeterminism, DistributedMatchesShardedLocal) {
  const auto targets = targets4();
  const auto config = core::im_rp_campaign(42);

  DistributedConfig dc;
  dc.fabric.campaign = config;
  dc.num_workers = 2;
  dc.num_shards = 3;
  const DistributedOutcome out = run_distributed(dc, targets);

  EXPECT_EQ(dump_of(out.result),
            dump_of(sharded_baseline(config, targets, 3, 0)));
  expect_conserved(out.stats);
  EXPECT_EQ(out.stats.submits_opened, 3u);
  EXPECT_EQ(out.stats.submits_closed_result, 3u);
}

TEST(FabricDeterminism, FaultCountsMatchShardedLocal) {
  // A faulty campaign's fault fields cross the wire: retries, deadline
  // evictions, a spot reclaim's requeues and pilot failure, and the
  // per-task attempt counts equal run_sharded's.
  const auto targets = protein::pdz_benchmark(8);
  auto config = core::im_rp_campaign(42);
  config.extra_pilots.push_back(core::calibration::spot_pilot());
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

  DistributedConfig dc;
  dc.fabric.campaign = config;
  dc.num_workers = 2;
  dc.num_shards = 2;
  const DistributedOutcome out = run_distributed(dc, targets);
  const auto local = sharded_baseline(config, targets, 2, 0);
  ASSERT_GT(local.task_retries, 0u);
  ASSERT_GT(local.task_timeouts, 0u);
  ASSERT_GT(local.task_requeues, 0u);
  ASSERT_GT(local.pilot_failures, 0u);
  ASSERT_FALSE(local.attempts.empty());
  EXPECT_EQ(out.result.task_retries, local.task_retries);
  EXPECT_EQ(out.result.task_timeouts, local.task_timeouts);
  EXPECT_EQ(out.result.task_requeues, local.task_requeues);
  EXPECT_EQ(out.result.pilot_failures, local.pilot_failures);
  EXPECT_EQ(out.result.attempts, local.attempts);
  EXPECT_EQ(dump_of(out.result), dump_of(local));
  expect_conserved(out.stats);
}

TEST(FabricDeterminism, WorkerCountIsUnobservable) {
  // Same plan, 1 vs 3 workers: scheduling differs, bytes don't.
  const auto targets = targets4();
  const auto config = core::im_rp_campaign(7);
  std::vector<std::string> dumps;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
    DistributedConfig dc;
    dc.fabric.campaign = config;
    dc.num_workers = workers;
    dc.num_shards = 4;
    dumps.push_back(dump_of(run_distributed(dc, targets).result));
  }
  EXPECT_EQ(dumps[0], dumps[1]);
  EXPECT_EQ(dumps[0], dump_of(sharded_baseline(config, targets, 4, 0)));
}

TEST(FabricDeterminism, ChaosScheduleIsUnobservable) {
  // Drop/reorder/delay churn perturbs delivery, resubmissions, and the
  // assignment schedule — never the merged bytes.
  const auto targets = targets4();
  const auto config = core::im_rp_campaign(42);
  const std::string baseline =
      dump_of(sharded_baseline(config, targets, 4, 0));

  for (const std::uint64_t chaos_seed : {1ULL, 2ULL, 3ULL}) {
    DistributedConfig dc;
    dc.fabric.campaign = config;
    dc.num_workers = 2;
    dc.num_shards = 4;
    dc.chaos.seed = chaos_seed;
    dc.chaos.drop_rate = 0.10;
    dc.chaos.reorder_rate = 0.20;
    dc.chaos.delay_min = 0;
    dc.chaos.delay_max = 3;
    dc.fabric.resubmit_after = 16;
    const DistributedOutcome out = run_distributed(dc, targets);
    EXPECT_EQ(dump_of(out.result), baseline) << "chaos seed " << chaos_seed;
    expect_conserved(out.stats);
    EXPECT_GT(out.net.dropped, 0u) << "chaos too tame to prove anything";
  }
}

TEST(FabricDeterminism, WorkerDeathFailsOverBitExact) {
  const auto targets = targets4();
  const auto config = core::im_rp_campaign(42);
  const std::size_t cadence = 2;
  const std::string baseline =
      dump_of(sharded_baseline(config, targets, 2, cadence));

  for (const bool ship_final : {false, true}) {
    DistributedConfig dc;
    dc.fabric.campaign = config;
    dc.fabric.checkpoint_every = cadence;
    dc.fabric.heartbeat_timeout = 20;
    dc.num_workers = 2;
    dc.num_shards = 2;
    dc.kill_plans = {
        WorkerKillPlan{.die_at_checkpoint = 1, .ship_final = ship_final}};
    const DistributedOutcome out = run_distributed(dc, targets);
    EXPECT_EQ(dump_of(out.result), baseline)
        << "ship_final=" << ship_final;
    EXPECT_EQ(out.stats.workers_declared_dead, 1u);
    EXPECT_GE(out.stats.reassignments, 1u);
    EXPECT_EQ(out.stats.submits_closed_death, 1u);
    expect_conserved(out.stats);
  }
}

TEST(FabricDeterminism, KillAtRandomBarrierSweep) {
  // Seeded sweep over where the worker dies: the recovery contract cannot
  // depend on which checkpoint barrier the crash lands on.
  const auto targets = targets4();
  const auto config = core::im_rp_campaign(42);
  const std::size_t cadence = 2;
  const std::string baseline =
      dump_of(sharded_baseline(config, targets, 2, cadence));

  for (const std::size_t die_at : {std::size_t{1}, std::size_t{2},
                                   std::size_t{3}}) {
    for (const bool ship_final : {false, true}) {
      DistributedConfig dc;
      dc.fabric.campaign = config;
      dc.fabric.checkpoint_every = cadence;
      dc.fabric.heartbeat_timeout = 20;
      dc.num_workers = 2;
      dc.num_shards = 2;
      dc.kill_plans = {WorkerKillPlan{.die_at_checkpoint = die_at,
                                      .ship_final = ship_final}};
      const DistributedOutcome out = run_distributed(dc, targets);
      EXPECT_EQ(dump_of(out.result), baseline)
          << "die_at=" << die_at << " ship_final=" << ship_final;
      EXPECT_EQ(out.stats.workers_declared_dead, 1u);
      expect_conserved(out.stats);
    }
  }
}

TEST(FabricDeterminism, DoubleFailureChainedRecovery) {
  // The replacement worker dies too; the shard's checkpoint lineage keeps
  // counting and the third worker lands the same bytes.
  const auto targets = targets4();
  const auto config = core::im_rp_campaign(42);
  const std::size_t cadence = 2;
  const std::string baseline =
      dump_of(sharded_baseline(config, targets, 1, cadence));

  DistributedConfig dc;
  dc.fabric.campaign = config;
  dc.fabric.checkpoint_every = cadence;
  dc.fabric.heartbeat_timeout = 20;
  dc.num_workers = 3;
  dc.num_shards = 1;
  dc.kill_plans = {WorkerKillPlan{.die_at_checkpoint = 1, .ship_final = true},
                   WorkerKillPlan{.die_at_checkpoint = 1, .ship_final = false}};
  const DistributedOutcome out = run_distributed(dc, targets);
  EXPECT_EQ(dump_of(out.result), baseline);
  EXPECT_EQ(out.stats.workers_declared_dead, 2u);
  EXPECT_GE(out.stats.reassignments, 2u);
  EXPECT_EQ(out.stats.submits_closed_death, 2u);
  expect_conserved(out.stats);
}

TEST(FabricDeterminism, DeathUnderChaosStillBitExact) {
  // Failover composed with frame loss: dropped checkpoints, dropped
  // results, resubmissions — the merged bytes still match.
  const auto targets = targets4();
  const auto config = core::im_rp_campaign(42);
  const std::size_t cadence = 2;
  const std::string baseline =
      dump_of(sharded_baseline(config, targets, 2, cadence));

  DistributedConfig dc;
  dc.fabric.campaign = config;
  dc.fabric.checkpoint_every = cadence;
  dc.fabric.heartbeat_timeout = 40;
  dc.fabric.resubmit_after = 16;
  dc.num_workers = 2;
  dc.num_shards = 2;
  dc.chaos.seed = 5;
  dc.chaos.drop_rate = 0.05;
  dc.chaos.delay_min = 0;
  dc.chaos.delay_max = 2;
  dc.kill_plans = {WorkerKillPlan{.die_at_checkpoint = 1, .ship_final = false}};
  const DistributedOutcome out = run_distributed(dc, targets);
  EXPECT_EQ(dump_of(out.result), baseline);
  EXPECT_GE(out.stats.workers_declared_dead, 1u);
  expect_conserved(out.stats);
}

TEST(FabricDeterminism, CoordinatorRestartMidCampaign) {
  // Kill the coordinator (by discarding it) once it has stored progress,
  // restore a fresh one from the snapshot with fresh workers, and finish:
  // same bytes as the uninterrupted baseline.
  const auto targets = targets4();
  const auto config = core::im_rp_campaign(42);
  const std::size_t cadence = 2;
  const core::ShardPlan plan = core::ShardPlan::contiguous(targets, 2);
  const std::string baseline =
      dump_of(sharded_baseline(config, targets, 2, cadence));

  FabricConfig fc;
  fc.campaign = config;
  fc.checkpoint_every = cadence;

  FabricSnapshot snap;
  {
    LoopbackNet net;
    CoordinatorNode first(fc, &targets, plan);
    auto [coord_side, worker_side] = net.make_link_pair("coord", "w0");
    first.add_worker(coord_side);
    WorkerConfig wc;
    wc.worker_id = 0;
    wc.campaign = config;
    wc.checkpoint_every = cadence;
    WorkerNode worker(wc, worker_side, &targets);

    // Pump until the first shard finishes, then "crash" the coordinator.
    for (std::uint64_t tick = 0; tick < 50000; ++tick) {
      net.advance(1);
      first.pump(net.now());
      worker.pump();
      if (first.snapshot().shards[0].done) {
        break;
      }
    }
    snap = first.snapshot();
    ASSERT_TRUE(snap.shards[0].done) << "scenario never reached mid-campaign";
    ASSERT_FALSE(snap.shards[1].done) << "campaign finished before the crash";
  }

  LoopbackNet net;
  CoordinatorNode second(fc, &targets, plan);
  second.restore(snap);
  auto [coord_side, worker_side] = net.make_link_pair("coord", "w0");
  second.add_worker(coord_side);
  WorkerConfig wc;
  wc.worker_id = 0;
  wc.campaign = config;
  wc.checkpoint_every = cadence;
  WorkerNode worker(wc, worker_side, &targets);
  for (std::uint64_t tick = 0; tick < 50000 && !second.done(); ++tick) {
    net.advance(1);
    second.pump(net.now());
    worker.pump();
  }
  ASSERT_TRUE(second.done());
  EXPECT_EQ(dump_of(second.result()), baseline);
}

TEST(FabricDeterminism, HeartbeatTimeoutReroutesSilentWorker) {
  // A partitioned worker: registered, link open, but never pumping. Only
  // the heartbeat timeout can catch this one (no FIN arrives), and its
  // shard must land on the healthy peer with the same bytes.
  const auto targets = targets4();
  const auto config = core::im_rp_campaign(42);
  const core::ShardPlan plan = core::ShardPlan::contiguous(targets, 2);
  const std::string baseline =
      dump_of(sharded_baseline(config, targets, 2, 0));

  FabricConfig fc;
  fc.campaign = config;
  fc.heartbeat_timeout = 10;

  LoopbackNet net;
  CoordinatorNode coordinator(fc, &targets, plan);
  auto [c0, w0_side] = net.make_link_pair("coord->w0", "w0->coord");
  coordinator.add_worker(c0);
  auto [c1, w1_side] = net.make_link_pair("coord->w1", "w1->coord");
  coordinator.add_worker(c1);

  WorkerConfig wc;
  wc.worker_id = 0;
  wc.campaign = config;
  WorkerNode worker0(wc, w0_side, &targets);

  // The ghost registers once, then never polls again — a partition, not
  // a crash (the link stays open).
  w1_side->send(HelloMsg{.worker_id = 1,
                         .wire_version = kWireVersion,
                         .slots = 1,
                         .build_tag = "ghost"});

  for (std::uint64_t tick = 0; tick < 50000 && !coordinator.done(); ++tick) {
    net.advance(1);
    coordinator.pump(net.now());
    worker0.pump();
  }
  ASSERT_TRUE(coordinator.done());
  EXPECT_EQ(dump_of(coordinator.result()), baseline);
  EXPECT_EQ(coordinator.stats().workers_declared_dead, 1u);
  expect_conserved(coordinator.stats());

  // Epoch fencing: the partitioned worker "reconnects" and delivers a
  // result for its long-reassigned shard — counted stale, table intact.
  const std::string before = dump_of(coordinator.result());
  TaskResultMsg ghost_result;
  ghost_result.shard_id = 1;
  ghost_result.epoch = 1;
  ghost_result.task_seq = 999;
  ghost_result.status = TaskResultMsg::Status::kOk;
  ghost_result.payload = "{}";
  w1_side->send(ghost_result);
  net.advance(1);
  coordinator.pump(net.now());
  EXPECT_GE(coordinator.stats().stale_frames, 1u);
  EXPECT_EQ(dump_of(coordinator.result()), before);
}

TEST(FabricDeterminism, SocketTransportMatchesLoopback) {
  // Same campaign over real AF_UNIX sockets: transport is unobservable.
  const auto targets = targets4();
  const auto config = core::im_rp_campaign(42);

  DistributedConfig dc;
  dc.fabric.campaign = config;
  dc.num_workers = 2;
  dc.num_shards = 2;
  dc.use_sockets = true;
  const DistributedOutcome out = run_distributed(dc, targets);
  EXPECT_EQ(dump_of(out.result),
            dump_of(sharded_baseline(config, targets, 2, 0)));
  expect_conserved(out.stats);
}

TEST(FabricDeterminism, ErrorShardSurfacesInResult) {
  // A worker configured with a different campaign reports kError; the
  // coordinator's result() names the shard instead of looping forever.
  const auto targets = targets4();
  DistributedConfig dc;
  dc.fabric.campaign = core::im_rp_campaign(42);
  dc.num_workers = 1;
  dc.num_shards = 1;
  // A kill plan without a checkpoint cadence is rejected worker-side and
  // comes back as a terminal kError result.
  dc.kill_plans = {WorkerKillPlan{.die_at_checkpoint = 1}};
  EXPECT_THROW((void)run_distributed(dc, targets), std::runtime_error);
}

}  // namespace
}  // namespace impress::net
