#include "hpc/gantt.hpp"

#include <gtest/gtest.h>

#include "hpc/analytics.hpp"

namespace impress::hpc {
namespace {

void fill_task_profile(obs::Tracer& t) {
  t.mark(0.0, "task.0", events::kSchedule);
  t.mark(0.0, "task.0", events::kExecSetupStart);
  t.mark(100.0, "task.0", events::kExecStart);
  t.mark(1000.0, "task.0", events::kExecStop);
  t.mark(0.0, "task.1", events::kSchedule);
  t.mark(500.0, "task.1", events::kExecSetupStart);
  t.mark(600.0, "task.1", events::kExecStart);
  t.mark(1500.0, "task.1", events::kExecStop);
}

TEST(Gantt, EmptyProfilerHandled) {
  obs::Tracer t;
  EXPECT_EQ(render_gantt(tabulate(t.marks())), "(no events)\n");
}

TEST(Gantt, RendersOneRowPerStartedTask) {
  obs::Tracer t;
  fill_task_profile(t);
  const auto out = render_gantt(tabulate(t.marks()));
  EXPECT_NE(out.find("task.0"), std::string::npos);
  EXPECT_NE(out.find("task.1"), std::string::npos);
  EXPECT_NE(out.find('#'), std::string::npos);
  EXPECT_NE(out.find('-'), std::string::npos);
}

TEST(Gantt, WaitingSegmentShownForQueuedTasks) {
  obs::Tracer t;
  fill_task_profile(t);
  GanttOptions opts;
  opts.include_waiting = true;
  const auto with_wait = render_gantt(tabulate(t.marks()), 0.0, opts);
  // task.1 waited from 0 to 500 before setup: leading dots on its row.
  EXPECT_NE(with_wait.find('.'), std::string::npos);
}

TEST(Gantt, NeverStartedTasksOmitted) {
  obs::Tracer t;
  t.mark(0.0, "task.queued", events::kSchedule);
  t.mark(0.0, "task.ran", events::kExecSetupStart);
  t.mark(1.0, "task.ran", events::kExecStart);
  t.mark(2.0, "task.ran", events::kExecStop);
  const auto out = render_gantt(tabulate(t.marks()));
  EXPECT_EQ(out.find("task.queued"), std::string::npos);
  EXPECT_NE(out.find("task.ran"), std::string::npos);
}

TEST(Gantt, RowCapSummarizesOverflow) {
  obs::Tracer t;
  for (int i = 0; i < 10; ++i) {
    const std::string uid = "task." + std::to_string(i);
    t.mark(i, uid, events::kExecSetupStart);
    t.mark(i + 0.5, uid, events::kExecStart);
    t.mark(i + 1.0, uid, events::kExecStop);
  }
  GanttOptions opts;
  opts.max_rows = 3;
  const auto out = render_gantt(tabulate(t.marks()), 0.0, opts);
  EXPECT_NE(out.find("(+7 more tasks)"), std::string::npos);
}

TEST(Gantt, RunningTaskExtendsToEnd) {
  obs::Tracer t;
  t.mark(0.0, "task.0", events::kExecSetupStart);
  t.mark(1.0, "task.0", events::kExecStart);
  // No stop mark: still running at t_end.
  const auto out = render_gantt(tabulate(t.marks()), 100.0);
  EXPECT_NE(out.find('#'), std::string::npos);
}

TEST(Gantt, AxisShowsSpanInHours) {
  obs::Tracer t;
  fill_task_profile(t);
  const auto out = render_gantt(tabulate(t.marks()), 7200.0);
  EXPECT_NE(out.find("2.0h"), std::string::npos);
}

}  // namespace
}  // namespace impress::hpc
