// TSan-targeted stress tests for the checkpoint quiesce path under the
// threaded executor: the coordinator parks submissions on its decision
// thread while completion callbacks stream in from worker threads, then
// snapshots every layer (pipelines, fold cache, task-manager counters,
// executor rng) at the quiesce barrier. A race between the snapshot and
// a straggling worker is exactly what this suite exists to trip.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "fold/fold_cache.hpp"
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

TEST(StressCheckpoint, FoldCacheSnapshotRacesLookups) {
  // snapshot() walks every shard under its lock while reader threads
  // hammer lookups/inserts — the checkpoint path against executor
  // threads, distilled.
  fold::FoldCache cache(fold::FoldCache::Config{.capacity = 256, .shards = 4});
  // Seed before racing so every snapshot observes a non-empty cache
  // regardless of how the scheduler orders the reader threads.
  for (std::uint64_t k = 1; k <= 16; ++k) {
    fold::Prediction p;
    p.models.resize(1);
    cache.insert(k, p);
  }
  std::atomic<bool> stop{false};

  std::vector<std::thread> readers;
  for (int w = 0; w < 6; ++w)
    readers.emplace_back([&cache, &stop, w] {
      std::uint64_t k = 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(w + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        k ^= k >> 29;
        k *= 0xbf58476d1ce4e5b9ULL;
        if ((k & 3) == 0) {
          fold::Prediction p;
          p.models.resize(1);
          cache.insert(k, p);
        } else {
          (void)cache.lookup(k & 0x3ff);
        }
      }
    });

  std::size_t total_entries = 0;
  for (int i = 0; i < 200; ++i) {
    const auto snap = cache.snapshot();
    ASSERT_EQ(snap.shards.size(), 4u);
    for (const auto& shard : snap.shards) total_entries += shard.size();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  EXPECT_GT(total_entries, 0u);
}

TEST(StressCheckpoint, FoldCacheRestoredKeyHitsRaceSnapshot) {
  // After a resume every memo entry is key-only: the first hits race to
  // recompute and fill the same entries while the checkpoint path
  // snapshots the shards. Every hit must return the original bits, and
  // no racing fill may count as a duplicate miss.
  const auto target =
      protein::make_target("SC-KEY", 64, protein::alpha_synuclein().tail(10));
  const auto cx = target.start_complex();
  const fold::AlphaFold folder;
  const fold::FoldCache::Config config{.capacity = 64, .shards = 4};
  constexpr std::uint64_t kKeys = 12;
  constexpr int kRounds = 3;
  constexpr int kThreads = 6;

  std::vector<fold::Prediction> reference;
  fold::FoldCache source(config);
  for (std::uint64_t seed = 1; seed <= kKeys; ++seed) {
    common::Rng rng(seed);
    reference.push_back(source.predict(folder, cx, target.landscape, rng));
  }
  fold::FoldCache cache(config);
  cache.restore(source.snapshot());

  std::atomic<bool> go{false};
  std::atomic<int> running{kThreads};
  std::vector<std::vector<fold::Prediction>> got(kThreads);
  std::vector<std::thread> hitters;
  for (int w = 0; w < kThreads; ++w)
    hitters.emplace_back([&, w] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int round = 0; round < kRounds; ++round)
        for (std::uint64_t seed = 1; seed <= kKeys; ++seed) {
          common::Rng rng(seed);
          got[w].push_back(cache.predict(folder, cx, target.landscape, rng));
        }
      running.fetch_sub(1, std::memory_order_release);
    });
  std::thread snapshotter([&] {
    while (running.load(std::memory_order_acquire) > 0) {
      const auto snap = cache.snapshot();
      ASSERT_EQ(snap.shards.size(), 4u);
    }
  });
  go.store(true, std::memory_order_release);
  for (auto& t : hitters) t.join();
  snapshotter.join();

  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const auto& results : got) {
    ASSERT_EQ(results.size(), kKeys * kRounds);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& want = reference[i % kKeys];
      const auto& have = results[i];
      ASSERT_EQ(have.best_index, want.best_index);
      ASSERT_EQ(have.models.size(), want.models.size());
      for (std::size_t m = 0; m < want.models.size(); ++m) {
        EXPECT_EQ(bits(have.models[m].metrics.plddt),
                  bits(want.models[m].metrics.plddt));
        EXPECT_EQ(bits(have.models[m].metrics.ptm),
                  bits(want.models[m].metrics.ptm));
        EXPECT_EQ(bits(have.models[m].metrics.ipae),
                  bits(want.models[m].metrics.ipae));
      }
    }
  }
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, kThreads * kKeys * kRounds);
  EXPECT_EQ(s.misses, kKeys);
  EXPECT_EQ(s.duplicate_discards, 0u);
  EXPECT_EQ(s.misses, s.entries + s.evictions + s.duplicate_discards);
}

}  // namespace
}  // namespace impress::core
