// Interleaving-hostile hammering of the Tracer's record log, driven
// through its always-on lifecycle marks. Designed to trip ThreadSanitizer
// on any missing synchronization rather than flake: many writers,
// readers snapshotting mid-write, and clear() racing mark().

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

namespace impress {
namespace {

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
