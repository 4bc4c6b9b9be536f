#include "hpc/analytics.hpp"

#include <gtest/gtest.h>

namespace impress::hpc {
namespace {

void add_task(obs::Tracer& t, const std::string& uid, double schedule,
              double setup, double start, double stop) {
  t.mark(schedule, uid, events::kSchedule);
  t.mark(setup, uid, events::kExecSetupStart);
  t.mark(start, uid, events::kExecStart);
  t.mark(stop, uid, events::kExecStop);
}

TEST(Analytics, TaskTimingDecomposition) {
  obs::Tracer t;
  add_task(t, "task.0", 0.0, 10.0, 15.0, 115.0);
  const auto timings = task_timings(tabulate(t.marks()));
  ASSERT_EQ(timings.size(), 1u);
  EXPECT_DOUBLE_EQ(timings[0].wait, 10.0);
  EXPECT_DOUBLE_EQ(timings[0].setup, 5.0);
  EXPECT_DOUBLE_EQ(timings[0].run, 100.0);
}

TEST(Analytics, IncompleteTasksSkipped) {
  obs::Tracer t;
  add_task(t, "task.0", 0.0, 1.0, 2.0, 3.0);
  t.mark(0.0, "task.queued", events::kSchedule);  // never ran
  t.mark(0.0, "task.running", events::kExecStart);  // no stop
  EXPECT_EQ(task_timings(tabulate(t.marks())).size(), 1u);
}

TEST(Analytics, SummaryAggregates) {
  obs::Tracer t;
  add_task(t, "task.0", 0.0, 10.0, 12.0, 112.0);   // wait 10 setup 2 run 100
  add_task(t, "task.1", 0.0, 30.0, 34.0, 234.0);   // wait 30 setup 4 run 200
  const auto s = summarize_timings(tabulate(t.marks()));
  EXPECT_EQ(s.tasks, 2u);
  EXPECT_DOUBLE_EQ(s.mean_wait, 20.0);
  EXPECT_DOUBLE_EQ(s.mean_setup, 3.0);
  EXPECT_DOUBLE_EQ(s.mean_run, 150.0);
  EXPECT_NEAR(s.overhead_fraction, 23.0 / 173.0, 1e-12);
  EXPECT_GE(s.p95_wait, 20.0);
}

TEST(Analytics, EmptyProfilerSummary) {
  obs::Tracer t;
  const auto s = summarize_timings(tabulate(t.marks()));
  EXPECT_EQ(s.tasks, 0u);
  EXPECT_EQ(s.overhead_fraction, 0.0);
}

TEST(Analytics, ConcurrencySeriesCountsRunningTasks) {
  obs::Tracer t;
  add_task(t, "task.0", 0.0, 0.0, 0.0, 100.0);
  add_task(t, "task.1", 0.0, 0.0, 50.0, 100.0);
  const auto series = concurrency_series(tabulate(t.marks()), 4, 100.0);
  ASSERT_EQ(series.size(), 4u);
  EXPECT_NEAR(series[0], 1.0, 1e-9);  // 0-25: only task.0
  EXPECT_NEAR(series[1], 1.0, 1e-9);  // 25-50
  EXPECT_NEAR(series[2], 2.0, 1e-9);  // 50-75: both
  EXPECT_NEAR(series[3], 2.0, 1e-9);
}

TEST(Analytics, ConcurrencyHandlesRunningAtEnd) {
  obs::Tracer t;
  t.mark(0.0, "task.0", events::kSchedule);
  t.mark(0.0, "task.0", events::kExecSetupStart);
  t.mark(0.0, "task.0", events::kExecStart);  // never stops
  const auto series = concurrency_series(tabulate(t.marks()), 2, 10.0);
  EXPECT_NEAR(series[0], 1.0, 1e-9);
  EXPECT_NEAR(series[1], 1.0, 1e-9);
}

TEST(Analytics, PeakConcurrency) {
  obs::Tracer t;
  add_task(t, "task.0", 0, 0, 0.0, 10.0);
  add_task(t, "task.1", 0, 0, 5.0, 15.0);
  add_task(t, "task.2", 0, 0, 8.0, 9.0);
  add_task(t, "task.3", 0, 0, 20.0, 30.0);
  EXPECT_EQ(peak_concurrency(tabulate(t.marks())), 3u);
}

TEST(Analytics, PeakConcurrencyBackToBackIsOne) {
  obs::Tracer t;
  add_task(t, "task.0", 0, 0, 0.0, 10.0);
  add_task(t, "task.1", 0, 0, 10.0, 20.0);  // starts exactly as 0 stops
  EXPECT_EQ(peak_concurrency(tabulate(t.marks())), 1u);
}

TEST(Analytics, RetriedTaskPairsEachStartWithItsOwnAttemptsStop) {
  // Attempt 1 is cancelled in exec setup (an exec_stop with no exec_start);
  // attempt 2 runs 50-150. Attempt 3 of task.1 is still running at the end.
  obs::Tracer t;
  t.mark(0.0, "task.0", events::kSchedule);
  t.mark(10.0, "task.0", events::kExecSetupStart);
  t.mark(20.0, "task.0", events::kExecStop, "cancelled");
  add_task(t, "task.0", 30.0, 40.0, 50.0, 150.0);
  add_task(t, "task.1", 0.0, 0.0, 0.0, 60.0);
  add_task(t, "task.1", 70.0, 80.0, 90.0, 100.0);
  t.mark(110.0, "task.1", events::kSchedule);
  t.mark(110.0, "task.1", events::kExecSetupStart);
  t.mark(120.0, "task.1", events::kExecStart);
  const TaskTable table = tabulate(t.marks());

  // The final attempt that ran: task.0's second, task.1's second (its
  // third has not stopped).
  const auto timings = task_timings(table);
  ASSERT_EQ(timings.size(), 1u);
  EXPECT_EQ(timings[0].uid, "task.0");
  EXPECT_DOUBLE_EQ(timings[0].wait, 10.0);
  EXPECT_DOUBLE_EQ(timings[0].setup, 10.0);
  EXPECT_DOUBLE_EQ(timings[0].run, 100.0);

  // Every attempt's running interval counts: task.0 50-150, task.1 0-60,
  // 90-100 and 120-200 (to t_end).
  const auto series = concurrency_series(table, 4, 200.0);
  EXPECT_NEAR(series[0], 1.0, 1e-9);                  // 0-50: task.1
  EXPECT_NEAR(series[1], (10.0 + 50.0 + 10.0) / 50.0, 1e-9);  // 50-100
  EXPECT_NEAR(series[2], (50.0 + 30.0) / 50.0, 1e-9);         // 100-150
  EXPECT_NEAR(series[3], 1.0, 1e-9);                  // 150-200: task.1
  EXPECT_EQ(peak_concurrency(table), 2u);
}

TEST(Analytics, EmptyInputs) {
  obs::Tracer t;
  EXPECT_EQ(peak_concurrency(tabulate(t.marks())), 0u);
  EXPECT_TRUE(concurrency_series(tabulate(t.marks()), 0).empty());
  const auto series = concurrency_series(tabulate(t.marks()), 3);
  for (double v : series) EXPECT_EQ(v, 0.0);
}

TEST(Profiler, PhaseDurationsSingleTask) {
  obs::Tracer t;
  t.mark(0.0, "pilot.0", events::kBootstrapStart);
  t.mark(3.0, "pilot.0", events::kBootstrapStop);
  t.mark(10.0, "task.0", events::kExecSetupStart);
  t.mark(12.0, "task.0", events::kExecStart);
  t.mark(20.0, "task.0", events::kExecStop);
  const auto d = phase_durations(tabulate(t.marks()));
  EXPECT_DOUBLE_EQ(d.at("bootstrap"), 3.0);
  EXPECT_DOUBLE_EQ(d.at("exec_setup"), 2.0);
  EXPECT_DOUBLE_EQ(d.at("running"), 8.0);
}

TEST(Profiler, PhaseDurationsSumAcrossTasks) {
  obs::Tracer t;
  for (int i = 0; i < 3; ++i) {
    const std::string uid = "task." + std::to_string(i);
    t.mark(i * 10.0, uid, events::kExecSetupStart);
    t.mark(i * 10.0 + 1.0, uid, events::kExecStart);
    t.mark(i * 10.0 + 5.0, uid, events::kExecStop);
  }
  const auto d = phase_durations(tabulate(t.marks()));
  EXPECT_DOUBLE_EQ(d.at("exec_setup"), 3.0);
  EXPECT_DOUBLE_EQ(d.at("running"), 12.0);
}

TEST(Profiler, UnpairedEventsIgnored) {
  obs::Tracer t;
  t.mark(0.0, "task.0", events::kExecStop);   // stop without start
  t.mark(5.0, "task.1", events::kExecStart);  // start without stop
  const auto d = phase_durations(tabulate(t.marks()));
  EXPECT_DOUBLE_EQ(d.at("running"), 0.0);
}

}  // namespace
}  // namespace impress::hpc
