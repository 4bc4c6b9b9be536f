// TSan-targeted stress tests for the observability layer: writer threads
// hammering one Tracer / one MetricsRegistry while reader threads take
// snapshots mid-flight. A real synchronization bug in the tracer's log,
// the metric cells or the registry maps shows up as a TSan
// report (run under `cmake --preset tsan`); the closing assertions pin
// that no acknowledged write was lost once writers quiesce.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace impress::obs {
namespace {

TEST(StressObs, TracerWritersVsSnapshotReaders) {
  Tracer tracer(true);
  tracer.set_clock([] { return 0.0; });
  std::atomic<bool> stop{false};
  constexpr int kWriters = 6;
  constexpr int kSpansPer = 2'000;

  std::vector<std::thread> threads;
  threads.reserve(kWriters + 2);
  for (int w = 0; w < kWriters; ++w)
    threads.emplace_back([&tracer, w] {
      for (int i = 0; i < kSpansPer; ++i) {
        const SpanId parent =
            tracer.begin(0.0, "outer." + std::to_string(w), categories::kTask);
        const SpanId child =
            tracer.begin(0.0, "inner", categories::kWork, parent);
        tracer.attr(child, "i", std::to_string(i));
        tracer.end(child, 1.0);
        tracer.end(parent, 2.0);
      }
    });
  // Concurrent snapshots race the writers by design; each one must be
  // internally consistent (ordered, no torn strings).
  for (int r = 0; r < 2; ++r)
    threads.emplace_back([&tracer, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto spans = tracer.spans();
        for (std::size_t i = 1; i < spans.size(); ++i)
          ASSERT_LT(spans[i - 1].open_seq, spans[i].open_seq);
      }
    });
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true, std::memory_order_relaxed);
  for (std::size_t i = kWriters; i < threads.size(); ++i) threads[i].join();

  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), static_cast<std::size_t>(2 * kWriters * kSpansPer));
  for (const auto& s : spans) EXPECT_TRUE(s.closed());
}

TEST(StressObs, AmbientContextsAreThreadLocal) {
  Tracer tracer(true);
  tracer.set_clock([] { return 0.0; });
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&tracer, t] {
      for (int i = 0; i < 1'000; ++i) {
        const SpanId attempt = tracer.begin(
            0.0, "attempt." + std::to_string(t), categories::kAttempt);
        AmbientContext ctx(&tracer, attempt);
        ScopedSpan work = ambient_span("work");
        // Another thread's context must never leak into this one.
        ASSERT_EQ(ambient_parent(), work.id());
        work.close();
        ASSERT_EQ(ambient_parent(), attempt);
        tracer.end(attempt, 1.0);
      }
    });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(tracer.size(), static_cast<std::size_t>(2 * kThreads * 1'000));
}

TEST(StressObs, MetricsHammerWithConcurrentSnapshots) {
  MetricsRegistry registry(true);
  const RuntimeMetrics m = RuntimeMetrics::registered(registry);
  std::atomic<bool> stop{false};
  constexpr int kWriters = 6;
  constexpr std::uint64_t kOpsPer = 30'000;

  std::vector<std::thread> threads;
  threads.reserve(kWriters + 2);
  for (int w = 0; w < kWriters; ++w)
    threads.emplace_back([&m] {
      for (std::uint64_t i = 0; i < kOpsPer; ++i) {
        m.tasks_submitted->inc();
        m.tasks_outstanding->add(1.0);
        m.task_run_seconds->observe(static_cast<double>(i % 128));
        m.tasks_outstanding->sub(1.0);
        m.tasks_done->inc();
      }
    });
  for (int r = 0; r < 2; ++r)
    threads.emplace_back([&registry, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        const MetricsSnapshot snap = registry.snapshot();
        // Mid-flight sums are racy by design but never exceed the final
        // totals and never go backwards past zero.
        ASSERT_LE(snap.counter("impress_tasks_done"), kWriters * kOpsPer);
      }
    });
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true, std::memory_order_relaxed);
  for (std::size_t i = kWriters; i < threads.size(); ++i) threads[i].join();

  EXPECT_EQ(m.tasks_submitted->value(), kWriters * kOpsPer);
  EXPECT_EQ(m.tasks_done->value(), kWriters * kOpsPer);
  EXPECT_DOUBLE_EQ(m.tasks_outstanding->value(), 0.0);
  EXPECT_EQ(m.task_run_seconds->count(), kWriters * kOpsPer);
}

TEST(StressObs, RegistrationRacesResolveToOneHandle) {
  MetricsRegistry registry(true);
  constexpr int kThreads = 8;
  std::vector<Counter*> handles(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&registry, &handles, t] {
      Counter* c = registry.counter("raced");
      c->inc();
      handles[static_cast<std::size_t>(t)] = c;
    });
  for (auto& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(handles[t], handles[0]);
  EXPECT_EQ(handles[0]->value(), static_cast<std::uint64_t>(kThreads));
}

}  // namespace
}  // namespace impress::obs
