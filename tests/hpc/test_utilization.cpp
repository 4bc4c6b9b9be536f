#include "hpc/utilization.hpp"

#include <gtest/gtest.h>

#include <random>

#include "hpc/node.hpp"

namespace impress::hpc {
namespace {

UsageInterval interval(double start, double end, std::uint32_t cores,
                       std::uint32_t gpus, double ci = 1.0, double gi = 1.0) {
  return UsageInterval{.start = start,
                       .end = end,
                       .cores = cores,
                       .gpus = gpus,
                       .cpu_intensity = ci,
                       .gpu_intensity = gi,
                       .task_uid = "t"};
}

TEST(Utilization, EmptyRecorderIsZero) {
  UtilizationRecorder rec(28, 4);
  const auto s = rec.summarize();
  EXPECT_EQ(s.cpu_active, 0.0);
  EXPECT_EQ(s.gpu_active, 0.0);
  EXPECT_EQ(rec.latest_end(), 0.0);
}

TEST(Utilization, FullNodeFullTimeIsOne) {
  UtilizationRecorder rec(28, 4);
  rec.record(interval(0.0, 100.0, 28, 4));
  const auto s = rec.summarize(0.0, 100.0);
  EXPECT_DOUBLE_EQ(s.cpu_allocated, 1.0);
  EXPECT_DOUBLE_EQ(s.cpu_active, 1.0);
  EXPECT_DOUBLE_EQ(s.gpu_allocated, 1.0);
  EXPECT_DOUBLE_EQ(s.gpu_active, 1.0);
}

TEST(Utilization, IntensitySeparatesActiveFromAllocated) {
  UtilizationRecorder rec(10, 2);
  rec.record(interval(0.0, 10.0, 10, 2, 0.5, 0.25));
  const auto s = rec.summarize(0.0, 10.0);
  EXPECT_DOUBLE_EQ(s.cpu_allocated, 1.0);
  EXPECT_DOUBLE_EQ(s.cpu_active, 0.5);
  EXPECT_DOUBLE_EQ(s.gpu_allocated, 1.0);
  EXPECT_DOUBLE_EQ(s.gpu_active, 0.25);
}

TEST(Utilization, PartialTimeCoverage) {
  UtilizationRecorder rec(10, 0);
  rec.record(interval(0.0, 5.0, 10, 0));
  const auto s = rec.summarize(0.0, 10.0);
  EXPECT_DOUBLE_EQ(s.cpu_active, 0.5);
}

TEST(Utilization, WindowClipsIntervals) {
  UtilizationRecorder rec(10, 0);
  rec.record(interval(0.0, 100.0, 10, 0));
  const auto s = rec.summarize(40.0, 60.0);
  EXPECT_DOUBLE_EQ(s.cpu_active, 1.0);
  EXPECT_DOUBLE_EQ(s.span_seconds, 20.0);
}

TEST(Utilization, DefaultWindowEndsAtLatest) {
  UtilizationRecorder rec(4, 0);
  rec.record(interval(0.0, 10.0, 4, 0));
  rec.record(interval(10.0, 40.0, 2, 0));
  EXPECT_DOUBLE_EQ(rec.latest_end(), 40.0);
  const auto s = rec.summarize();
  // (10*4 + 30*2) / (40*4) = 100/160.
  EXPECT_DOUBLE_EQ(s.cpu_active, 0.625);
}

TEST(Utilization, OverlappingIntervalsSum) {
  UtilizationRecorder rec(10, 0);
  rec.record(interval(0.0, 10.0, 4, 0));
  rec.record(interval(0.0, 10.0, 6, 0));
  const auto s = rec.summarize(0.0, 10.0);
  EXPECT_DOUBLE_EQ(s.cpu_active, 1.0);
}

TEST(Utilization, InvertedIntervalNormalized) {
  UtilizationRecorder rec(4, 0);
  rec.record(interval(10.0, 5.0, 4, 0));  // end < start
  EXPECT_DOUBLE_EQ(rec.latest_end(), 10.0);
  const auto s = rec.summarize(0.0, 10.0);
  EXPECT_DOUBLE_EQ(s.cpu_active, 0.0);  // zero-length after normalization
}

TEST(Utilization, SeriesBinsIntegrateToAverage) {
  UtilizationRecorder rec(10, 0);
  rec.record(interval(0.0, 50.0, 10, 0, 0.8, 1.0));
  rec.record(interval(50.0, 100.0, 5, 0, 0.8, 1.0));
  const auto series = rec.cpu_series(10);
  ASSERT_EQ(series.size(), 10u);
  for (int b = 0; b < 5; ++b) EXPECT_NEAR(series[b], 0.8, 1e-9);
  for (int b = 5; b < 10; ++b) EXPECT_NEAR(series[b], 0.4, 1e-9);
}

TEST(Utilization, GpuSeriesIndependentOfCpu) {
  UtilizationRecorder rec(10, 4);
  rec.record(interval(0.0, 10.0, 10, 0));
  const auto gpu = rec.gpu_series(5);
  for (double v : gpu) EXPECT_EQ(v, 0.0);
}

TEST(Utilization, SeriesEmptyAndZeroBins) {
  UtilizationRecorder rec(10, 4);
  EXPECT_TRUE(rec.cpu_series(0).empty());
  const auto s = rec.cpu_series(5);
  for (double v : s) EXPECT_EQ(v, 0.0);
}

TEST(Utilization, SeriesClampsToOne) {
  UtilizationRecorder rec(2, 0);
  rec.record(interval(0.0, 10.0, 2, 0));
  rec.record(interval(0.0, 10.0, 2, 0));  // oversubscribed record
  const auto s = rec.cpu_series(4);
  for (double v : s) EXPECT_LE(v, 1.0);
}

TEST(Utilization, IntervalsAccessorReturnsCopies) {
  UtilizationRecorder rec(4, 0);
  rec.record(interval(0.0, 1.0, 1, 0));
  const auto ivs = rec.intervals();
  ASSERT_EQ(ivs.size(), 1u);
  EXPECT_EQ(ivs[0].task_uid, "t");
}

TEST(Utilization, EnergyEstimateMatchesHandComputation) {
  UtilizationRecorder rec(28, 4);
  // 10 cores at intensity 0.5 for 3600 s + 2 GPUs at intensity 1.0 for
  // 1800 s: (10*0.5*12 W * 3600 s + 2*1.0*250 W * 1800 s) / 3.6e6 J/kWh.
  rec.record(interval(0.0, 3600.0, 10, 0, 0.5, 0.0));
  rec.record(interval(0.0, 1800.0, 0, 2, 0.0, 1.0));
  const double expected = (60.0 * 3600.0 + 500.0 * 1800.0) / 3.6e6;
  EXPECT_NEAR(rec.energy_kwh(), expected, 1e-9);
}

TEST(Utilization, EnergyScalesWithDraw) {
  UtilizationRecorder rec(4, 1);
  rec.record(interval(0.0, 100.0, 4, 1));
  EXPECT_NEAR(rec.energy_kwh(24.0, 500.0), 2.0 * rec.energy_kwh(12.0, 250.0),
              1e-12);
  EXPECT_EQ(UtilizationRecorder(4, 1).energy_kwh(), 0.0);
}

TEST(Utilization, NegativeStartClampedConsistentlyAcrossPaths) {
  // Regression (PR 10): utilization clamped a negative interval start to 0
  // but the energy term used the raw span, so the energy total disagreed
  // with any windowed recomputation. Both must see 10 s here.
  UtilizationRecorder rec(4, 2);
  rec.record(interval(-5.0, 10.0, 4, 2, 0.5, 0.5));
  ASSERT_EQ(rec.intervals().size(), 1u);
  EXPECT_EQ(rec.intervals()[0].start, 0.0);  // normalized at the door
  const auto s = rec.summarize(0.0, 10.0);
  EXPECT_DOUBLE_EQ(s.cpu_active, 0.5);
  const double expected =
      10.0 * (4 * 0.5 * 12.0 + 2 * 0.5 * 250.0) / 3.6e6;
  EXPECT_NEAR(rec.energy_kwh(), expected, 1e-15);
}

TEST(Utilization, DefaultQueriesMatchWindowedScanOnHeterogeneousCluster) {
  // Property test: thousands of seeded intervals over a heterogeneous
  // cluster — including negative starts, inverted spans and zero-length
  // intervals — must leave the default-argument queries *bit-identical*
  // to an explicit window over the whole span and to manual scans.
  const auto nodes = make_cluster(13);
  std::uint32_t cores = 0, gpus = 0;
  for (const auto& n : nodes) {
    cores += n.cores;
    gpus += n.gpus;
  }
  UtilizationRecorder rec(cores, gpus);
  std::mt19937_64 rng(2024);
  for (int i = 0; i < 4000; ++i) {
    const auto& n = nodes[rng() % nodes.size()];
    const double start = static_cast<double>(rng() % 1000) - 20.0;
    const double end = start + static_cast<double>(rng() % 300) - 10.0;
    rec.record(UsageInterval{
        .start = start,
        .end = end,
        .cores = static_cast<std::uint32_t>(rng() % (n.cores + 1)),
        .gpus = static_cast<std::uint32_t>(rng() % (n.gpus + 1)),
        .cpu_intensity = static_cast<double>(rng() % 101) / 100.0,
        .gpu_intensity = static_cast<double>(rng() % 101) / 100.0,
        .task_uid = "p"});
  }
  // Default full-span summarize vs the explicit window.
  const auto fast = rec.summarize();
  const auto slow = rec.summarize(0.0, rec.latest_end());
  EXPECT_EQ(fast.span_seconds, slow.span_seconds);
  EXPECT_EQ(fast.cpu_allocated, slow.cpu_allocated);
  EXPECT_EQ(fast.cpu_active, slow.cpu_active);
  EXPECT_EQ(fast.gpu_allocated, slow.gpu_allocated);
  EXPECT_EQ(fast.gpu_active, slow.gpu_active);
  // Default-wattage energy vs a manual scan with the same terms.
  double joules = 0.0;
  for (const auto& iv : rec.intervals()) {
    const double dt = iv.end - iv.start;
    if (dt <= 0.0) continue;
    joules += dt * (iv.cores * iv.cpu_intensity *
                        UtilizationRecorder::kDefaultWattsPerCore +
                    iv.gpus * iv.gpu_intensity *
                        UtilizationRecorder::kDefaultWattsPerGpu);
  }
  EXPECT_EQ(rec.energy_kwh(), joules / 3.6e6);
  // Custom wattages, pinned against their own manual scan.
  double joules_custom = 0.0;
  for (const auto& iv : rec.intervals()) {
    const double dt = iv.end - iv.start;
    if (dt <= 0.0) continue;
    joules_custom += dt * (iv.cores * iv.cpu_intensity * 17.0 +
                           iv.gpus * iv.gpu_intensity * 400.0);
  }
  EXPECT_EQ(rec.energy_kwh(17.0, 400.0), joules_custom / 3.6e6);
}

TEST(Utilization, ZeroCapacityGpuStaysZero) {
  UtilizationRecorder rec(4, 0);
  rec.record(interval(0.0, 1.0, 1, 0));
  const auto s = rec.summarize(0.0, 1.0);
  EXPECT_EQ(s.gpu_active, 0.0);
  EXPECT_EQ(s.gpu_allocated, 0.0);
}

}  // namespace
}  // namespace impress::hpc
