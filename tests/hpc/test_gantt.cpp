#include "hpc/gantt.hpp"

#include <gtest/gtest.h>

namespace impress::hpc {
namespace {

void fill_task_profile(Profiler& p) {
  p.record(0.0, "task.0", events::kSchedule);
  p.record(0.0, "task.0", events::kExecSetupStart);
  p.record(100.0, "task.0", events::kExecStart);
  p.record(1000.0, "task.0", events::kExecStop);
  p.record(0.0, "task.1", events::kSchedule);
  p.record(500.0, "task.1", events::kExecSetupStart);
  p.record(600.0, "task.1", events::kExecStart);
  p.record(1500.0, "task.1", events::kExecStop);
}

TEST(Gantt, EmptyProfilerHandled) {
  Profiler p;
  EXPECT_EQ(render_gantt(p.events()), "(no events)\n");
}

TEST(Gantt, RendersOneRowPerStartedTask) {
  Profiler p;
  fill_task_profile(p);
  const auto out = render_gantt(p.events());
  EXPECT_NE(out.find("task.0"), std::string::npos);
  EXPECT_NE(out.find("task.1"), std::string::npos);
  EXPECT_NE(out.find('#'), std::string::npos);
  EXPECT_NE(out.find('-'), std::string::npos);
}

TEST(Gantt, WaitingSegmentShownForQueuedTasks) {
  Profiler p;
  fill_task_profile(p);
  GanttOptions opts;
  opts.include_waiting = true;
  const auto with_wait = render_gantt(p.events(), 0.0, opts);
  // task.1 waited from 0 to 500 before setup: leading dots on its row.
  EXPECT_NE(with_wait.find('.'), std::string::npos);
}

TEST(Gantt, NeverStartedTasksOmitted) {
  Profiler p;
  p.record(0.0, "task.queued", events::kSchedule);
  p.record(0.0, "task.ran", events::kExecSetupStart);
  p.record(1.0, "task.ran", events::kExecStart);
  p.record(2.0, "task.ran", events::kExecStop);
  const auto out = render_gantt(p.events());
  EXPECT_EQ(out.find("task.queued"), std::string::npos);
  EXPECT_NE(out.find("task.ran"), std::string::npos);
}

TEST(Gantt, RowCapSummarizesOverflow) {
  Profiler p;
  for (int i = 0; i < 10; ++i) {
    const std::string uid = "task." + std::to_string(i);
    p.record(i, uid, events::kExecSetupStart);
    p.record(i + 0.5, uid, events::kExecStart);
    p.record(i + 1.0, uid, events::kExecStop);
  }
  GanttOptions opts;
  opts.max_rows = 3;
  const auto out = render_gantt(p.events(), 0.0, opts);
  EXPECT_NE(out.find("(+7 more tasks)"), std::string::npos);
}

TEST(Gantt, RunningTaskExtendsToEnd) {
  Profiler p;
  p.record(0.0, "task.0", events::kExecSetupStart);
  p.record(1.0, "task.0", events::kExecStart);
  // No stop event: still running at t_end.
  const auto out = render_gantt(p.events(), 100.0);
  EXPECT_NE(out.find('#'), std::string::npos);
}

TEST(Gantt, AxisShowsSpanInHours) {
  Profiler p;
  fill_task_profile(p);
  const auto out = render_gantt(p.events(), 7200.0);
  EXPECT_NE(out.find("2.0h"), std::string::npos);
}

}  // namespace
}  // namespace impress::hpc
