// Metrics property tests: counters and histograms written from many
// threads must aggregate to exactly what a single-threaded reference
// computes, the registry must be idempotent by name, and disabled
// instruments must observe nothing.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace impress::obs {
namespace {

TEST(Counter, ExactUnderConcurrentHammer) {
  MetricsRegistry registry(true);
  Counter* counter = registry.counter("hammered");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50'000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([counter] {
      for (std::uint64_t j = 0; j < kPerThread; ++j) counter->inc();
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter->value(), kThreads * kPerThread);
}

TEST(Counter, DisabledStaysZero) {
  MetricsRegistry registry(false);
  EXPECT_FALSE(registry.enabled());
  Counter* counter = registry.counter("dead");
  counter->add(100);
  EXPECT_EQ(counter->value(), 0u);
}

TEST(Gauge, AddSubSetSemantics) {
  MetricsRegistry registry(true);
  Gauge* gauge = registry.gauge("g");
  gauge->add(5.0);
  gauge->sub(2.0);
  EXPECT_DOUBLE_EQ(gauge->value(), 3.0);
  gauge->set(-1.5);
  EXPECT_DOUBLE_EQ(gauge->value(), -1.5);
}

TEST(Gauge, BalancedAddSubReturnsToZero) {
  MetricsRegistry registry(true);
  Gauge* gauge = registry.gauge("outstanding");
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([gauge] {
      for (int j = 0; j < 10'000; ++j) {
        gauge->add(1.0);
        gauge->sub(1.0);
      }
    });
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(gauge->value(), 0.0);
}

TEST(Histogram, BucketEdgesAreInclusiveUpperBounds) {
  MetricsRegistry registry(true);
  Histogram* h = registry.histogram("edges", {1.0, 10.0});
  h->observe(0.5);   // le=1
  h->observe(1.0);   // le=1 (inclusive)
  h->observe(1.01);  // le=10
  h->observe(10.0);  // le=10
  h->observe(11.0);  // +Inf
  const auto buckets = h->bucket_counts();
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 2u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(h->count(), 5u);
  EXPECT_DOUBLE_EQ(h->sum(), 0.5 + 1.0 + 1.01 + 10.0 + 11.0);
}

TEST(Histogram, BoundsAreSortedAndDeduplicated) {
  MetricsRegistry registry(true);
  Histogram* h = registry.histogram("messy", {10.0, 1.0, 10.0, 5.0});
  EXPECT_EQ(h->bounds(), (std::vector<double>{1.0, 5.0, 10.0}));
}

TEST(Histogram, ConcurrentObservationsMatchSingleThreadedReference) {
  // Property: observations from many threads must equal a
  // single-threaded run over the same multiset of values. Integer-valued
  // observations keep the double sum associative, so equality is exact.
  const auto bounds = Histogram::default_seconds_bounds();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20'000;

  // Deterministic per-thread value streams.
  std::vector<std::vector<double>> streams(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    std::mt19937_64 rng(1000 + i);
    streams[i].reserve(kPerThread);
    for (int j = 0; j < kPerThread; ++j)
      streams[i].push_back(static_cast<double>(rng() % 100'000));
  }

  MetricsRegistry registry(true);
  Histogram* concurrent = registry.histogram("concurrent", bounds);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([concurrent, &streams, i] {
      for (double v : streams[i]) concurrent->observe(v);
    });
  for (auto& t : threads) t.join();

  Histogram* reference = registry.histogram("reference", bounds);
  for (const auto& stream : streams)
    for (double v : stream) reference->observe(v);

  EXPECT_EQ(concurrent->bucket_counts(), reference->bucket_counts());
  EXPECT_EQ(concurrent->count(), reference->count());
  EXPECT_DOUBLE_EQ(concurrent->sum(), reference->sum());
}

TEST(Registry, RegistrationIsIdempotentByName) {
  MetricsRegistry registry(true);
  EXPECT_EQ(registry.counter("a"), registry.counter("a"));
  EXPECT_EQ(registry.gauge("b"), registry.gauge("b"));
  Histogram* h = registry.histogram("c", {1.0});
  EXPECT_EQ(registry.histogram("c", {5.0, 9.0}), h);
  EXPECT_EQ(h->bounds(), std::vector<double>{1.0})
      << "first registration's bounds win";
}

TEST(Registry, SnapshotIsSortedAndComparable) {
  MetricsRegistry registry(true);
  registry.counter("zeta")->add(1);
  registry.counter("alpha")->add(2);
  registry.gauge("mid")->set(3.0);
  const MetricsSnapshot a = registry.snapshot();
  ASSERT_EQ(a.counters.size(), 2u);
  EXPECT_EQ(a.counters[0].name, "alpha");
  EXPECT_EQ(a.counters[1].name, "zeta");
  EXPECT_EQ(a.counter("alpha"), 2u);
  EXPECT_EQ(a.counter("missing"), 0u);
  EXPECT_EQ(a, registry.snapshot());
  registry.counter("alpha")->inc();
  EXPECT_NE(a, registry.snapshot());
  EXPECT_FALSE(a.empty());
  EXPECT_TRUE(MetricsSnapshot{}.empty());
}

TEST(RuntimeMetrics, RegistersEveryHandleEvenWhenDisabled) {
  MetricsRegistry registry(false);
  const RuntimeMetrics m = RuntimeMetrics::registered(registry);
  // Hot paths dereference these unconditionally — none may be null.
  for (Counter* c :
       {m.tasks_submitted, m.tasks_done, m.tasks_failed, m.tasks_cancelled,
        m.tasks_retried, m.tasks_timed_out, m.tasks_requeued,
        m.scheduler_enqueues, m.scheduler_placements, m.scheduler_ticks,
        m.pipelines_started, m.pipelines_finished, m.subpipelines_spawned,
        m.pipeline_messages, m.completion_messages, m.stage_generate,
        m.stage_refine, m.stage_fold})
    ASSERT_NE(c, nullptr);
  ASSERT_NE(m.tasks_outstanding, nullptr);
  ASSERT_NE(m.pipelines_active, nullptr);
  ASSERT_NE(m.exec_setup_seconds, nullptr);
  ASSERT_NE(m.task_run_seconds, nullptr);
  m.tasks_submitted->inc();
  EXPECT_EQ(m.tasks_submitted->value(), 0u) << "disabled registry no-ops";
}

}  // namespace
}  // namespace impress::obs
