// Interleaving-hostile hammering of two concurrent structures — the
// sharded FoldCache and the Tracer's record log, driven through its
// always-on lifecycle marks. Designed to trip ThreadSanitizer on any
// missing synchronization rather than flake: many writers over
// overlapping keys, readers snapshotting mid-write, and clear() racing
// mark().

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fold/fold_cache.hpp"
#include "obs/trace.hpp"

namespace impress {
namespace {

fold::Prediction prediction_for(std::uint64_t key) {
  fold::Prediction p;
  p.models.push_back(fold::ModelPrediction{});
  p.models[0].metrics.ptm = static_cast<double>(key);
  return p;
}

TEST(StressPerf, FoldCacheConcurrentHammer) {
  // 8 writers insert/lookup over a key range several times the capacity,
  // so hits, misses, evictions and duplicate inserts all interleave.
  fold::FoldCache cache(fold::FoldCache::Config{.capacity = 64, .shards = 8});
  constexpr int kThreads = 8;
  constexpr int kIters = 4000;
  constexpr std::uint64_t kKeys = 256;
  std::atomic<int> corrupt{0};

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&, t] {
      std::uint64_t x = static_cast<std::uint64_t>(t) * 2654435761u + 1;
      for (int i = 0; i < kIters; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;  // xorshift: per-thread deterministic key stream
        const std::uint64_t key = 1 + x % kKeys;
        if (const auto got = cache.lookup(key)) {
          // Any resident value must be the one its key determines.
          if (got->models.at(0).metrics.ptm != static_cast<double>(key))
            corrupt.fetch_add(1, std::memory_order_relaxed);
        } else {
          cache.insert(key, prediction_for(key));
        }
        if (i % 1024 == 0) (void)cache.stats();  // reader mid-write
      }
    });
  for (auto& w : workers) w.join();

  EXPECT_EQ(corrupt.load(), 0) << "cache returned a value for the wrong key";
  const auto s = cache.stats();
  EXPECT_EQ(s.lookups(), static_cast<std::size_t>(kThreads) * kIters);
  EXPECT_LE(s.entries, 64u);
  EXPECT_GT(s.hits, 0u);
}

TEST(StressPerf, FoldCacheClearWhileHammered) {
  fold::FoldCache cache(fold::FoldCache::Config{.capacity = 32, .shards = 4});
  std::atomic<bool> stop{false};
  std::thread clearer([&] {
    while (!stop.load(std::memory_order_relaxed)) cache.clear();
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t)
    workers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < 20000; ++i) {
        const std::uint64_t key = 1 + (i + static_cast<std::uint64_t>(t)) % 64;
        if (const auto got = cache.lookup(key))
          ASSERT_EQ(got->models.at(0).metrics.ptm, static_cast<double>(key));
        else
          cache.insert(key, prediction_for(key));
      }
    });
  for (auto& w : workers) w.join();
  stop.store(true);
  clearer.join();
}

TEST(StressPerf, ProfilerConcurrentRecordAndMerge) {
  // 8 writer threads, each its own entity, with 2 readers snapshotting
  // the log concurrently. Afterwards: nothing lost, and each entity's
  // marks appear in its own program order (encoded in the mark time).
  obs::Tracer tracer(true);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r)
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        (void)tracer.size();
        (void)tracer.marks();  // snapshot mid-write
      }
    });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t)
    writers.emplace_back([&, t] {
      const std::string entity = "task.writer" + std::to_string(t);
      for (int i = 0; i < kPerThread; ++i)
        tracer.mark(static_cast<double>(i), entity, "exec_start");
    });
  for (auto& w : writers) w.join();
  stop.store(true);
  for (auto& r : readers) r.join();

  const auto marks = tracer.marks();
  ASSERT_EQ(marks.size(), static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_EQ(tracer.size(), 0u);  // marks are not spans
  // Per-entity program order survives in the shared log.
  std::map<std::string, int> seen;  // entity -> marks read so far
  for (const auto& m : marks)
    ASSERT_DOUBLE_EQ(m.time, static_cast<double>(seen[m.entity]++));
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kThreads));
  for (const auto& [entity, n] : seen) EXPECT_EQ(n, kPerThread) << entity;
}

TEST(StressPerf, ProfilerClearWhileRecording) {
  obs::Tracer tracer;
  std::atomic<bool> stop{false};
  std::thread clearer([&] {
    while (!stop.load(std::memory_order_relaxed)) tracer.clear();
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t)
    writers.emplace_back([&, t] {
      const std::string entity = "task.c" + std::to_string(t);
      for (int i = 0; i < 20000; ++i)
        tracer.mark(static_cast<double>(i), entity, "exec_start");
    });
  for (auto& w : writers) w.join();
  stop.store(true);
  clearer.join();
  // Whatever survived the clears is still a well-formed log.
  const auto marks = tracer.marks();
  EXPECT_LE(marks.size(), 4u * 20000u);
}

TEST(StressPerf, ManyProfilersAcrossThreads) {
  // Many tracers touched from several threads: every mark must land in
  // the tracer it was recorded on.
  constexpr int kTracers = 80;
  std::vector<std::unique_ptr<obs::Tracer>> tracers;
  for (int i = 0; i < kTracers; ++i)
    tracers.push_back(std::make_unique<obs::Tracer>());

  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t)
    workers.emplace_back([&] {
      for (int round = 0; round < 50; ++round)
        for (int i = 0; i < kTracers; ++i)
          tracers[static_cast<std::size_t>(i)]->mark(
              static_cast<double>(round), "task.x", "exec_start");
    });
  for (auto& w : workers) w.join();
  for (const auto& tracer : tracers)
    EXPECT_EQ(tracer->marks().size(), 4u * 50u);
}

}  // namespace
}  // namespace impress
