// Runtime behaviour in threaded mode: the same middleware under real
// concurrency. Durations here are virtual seconds scaled by time_scale,
// so keep them small enough that tests stay fast but large enough that
// overlap is real.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "hpc/analytics.hpp"

#include "runtime/session.hpp"

namespace impress::rp {
namespace {

SessionConfig threaded_config(std::uint64_t seed = 42) {
  SessionConfig cfg;
  cfg.mode = ExecutionMode::kThreaded;
  cfg.seed = seed;
  cfg.time_scale = 1e-3;  // 1 virtual second = 1 ms wall
  cfg.worker_threads = 8;
  return cfg;
}

PilotDescription small_pilot() {
  PilotDescription pd;
  pd.nodes = {hpc::NodeSpec{.name = "n", .cores = 4, .gpus = 1, .mem_gb = 32.0}};
  pd.policy = SchedulerPolicy::kBackfill;
  return pd;
}

TEST(ThreadedSession, SingleTaskCompletes) {
  Session session{threaded_config()};
  session.submit_pilot(small_pilot());
  auto task = session.task_manager().submit(make_simple_task("t", 1, 0, 20.0));
  session.run();
  EXPECT_EQ(task->state(), TaskState::kDone);
}

TEST(ThreadedSession, WorkRunsOnWorkerAndReturnsResult) {
  Session session{threaded_config()};
  session.submit_pilot(small_pilot());
  const auto main_id = std::this_thread::get_id();
  auto task = session.task_manager().submit(make_simple_task(
      "t", 1, 0, 1.0, [main_id](Task&) -> std::any {
        EXPECT_NE(std::this_thread::get_id(), main_id);
        return 123;
      }));
  session.run();
  EXPECT_EQ(task->result_as<int>(), 123);
}

TEST(ThreadedSession, ManyTasksAllComplete) {
  Session session{threaded_config()};
  session.submit_pilot(small_pilot());
  for (int i = 0; i < 50; ++i)
    session.task_manager().submit(
        make_simple_task("t" + std::to_string(i), 1, 0, 5.0));
  session.run();
  EXPECT_EQ(session.task_manager().counters().done, 50u);
  EXPECT_EQ(session.task_manager().outstanding(), 0u);
}

TEST(ThreadedSession, TasksActuallyOverlap) {
  Session session{threaded_config()};
  auto pilot = session.submit_pilot(small_pilot());
  for (int i = 0; i < 4; ++i)
    session.task_manager().submit(
        make_simple_task("t" + std::to_string(i), 1, 0, 80.0));
  const auto wall0 = std::chrono::steady_clock::now();
  session.run();
  const auto wall = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - wall0)
                        .count();
  EXPECT_EQ(session.task_manager().counters().done, 4u);
  // 4 x 80 virtual ms would be ~320 ms wall if serialized; the 4-core
  // node runs them concurrently, so well under that even with slack.
  EXPECT_LT(wall, 0.25);
  // And the recorded usage intervals must actually overlap in time.
  const auto intervals = pilot->recorder().intervals();
  ASSERT_EQ(intervals.size(), 4u);
  double earliest_end = intervals[0].end, latest_start = intervals[0].start;
  for (const auto& iv : intervals) {
    earliest_end = std::min(earliest_end, iv.end);
    latest_start = std::max(latest_start, iv.start);
  }
  EXPECT_LT(latest_start, earliest_end);
}

TEST(ThreadedSession, FailurePropagates) {
  Session session{threaded_config()};
  session.submit_pilot(small_pilot());
  auto task = session.task_manager().submit(make_simple_task(
      "t", 1, 0, 1.0,
      [](Task&) -> std::any { throw std::runtime_error("thread boom"); }));
  session.run();
  EXPECT_EQ(task->state(), TaskState::kFailed);
  EXPECT_EQ(task->error(), "thread boom");
}

TEST(ThreadedSession, UtilizationIntervalsRecorded) {
  Session session{threaded_config()};
  auto pilot = session.submit_pilot(small_pilot());
  session.task_manager().submit(make_simple_task("t", 2, 1, 30.0));
  session.run();
  const auto intervals = pilot->recorder().intervals();
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_EQ(intervals[0].cores, 2u);
  EXPECT_EQ(intervals[0].gpus, 1u);
  EXPECT_GT(intervals[0].end, intervals[0].start);
}

TEST(ThreadedSession, CallbacksFireOffMainThread) {
  Session session{threaded_config()};
  session.submit_pilot(small_pilot());
  std::atomic<int> calls{0};
  session.task_manager().add_callback([&](const TaskPtr&) { ++calls; });
  for (int i = 0; i < 10; ++i)
    session.task_manager().submit(
        make_simple_task("t" + std::to_string(i), 1, 0, 2.0));
  session.run();
  EXPECT_EQ(calls.load(), 10);
}

TEST(ThreadedSession, CooperativeCancelBetweenPhases) {
  Session session{threaded_config()};
  session.submit_pilot(small_pilot());
  TaskDescription td;
  td.name = "phased";
  td.resources = {.cores = 1, .gpus = 0, .mem_gb = 0.0};
  for (int i = 0; i < 10; ++i)
    td.phases.push_back(TaskPhase{.name = "p" + std::to_string(i),
                                  .duration_s = 30.0,
                                  .cores = 1});
  auto task = session.task_manager().submit(std::move(td));
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  session.task_manager().cancel(task);
  session.run();
  EXPECT_EQ(task->state(), TaskState::kCancelled);
  EXPECT_EQ(session.task_manager().counters().cancelled, 1u);
}

TEST(ThreadedSession, FollowOnSubmissionFromCallback) {
  Session session{threaded_config()};
  session.submit_pilot(small_pilot());
  std::atomic<int> chain{0};
  session.task_manager().add_callback([&](const TaskPtr& t) {
    if (t->description().name.rfind("chain", 0) == 0 && chain < 5) {
      ++chain;
      session.task_manager().submit(
          make_simple_task("chain" + std::to_string(chain.load()), 1, 0, 2.0));
    }
  });
  session.task_manager().submit(make_simple_task("chain0", 1, 0, 2.0));
  session.run();
  // The original and 5 follow-ons.
  EXPECT_EQ(session.task_manager().counters().done, 6u);
}

TEST(ThreadedSession, RestoredClockStartsAtTheCut) {
  // The pacer starts only once the clock offset is in place, so a resumed
  // session never fires or stamps anything before the cut.
  SessionRestore restore;
  restore.now = 1000.0;
  Session session{threaded_config(), restore};
  EXPECT_GE(session.now(), 1000.0);
  session.submit_pilot(small_pilot());
  auto task = session.task_manager().submit(make_simple_task("t", 1, 0, 5.0));
  session.run();
  EXPECT_EQ(task->state(), TaskState::kDone);
  const auto marks = session.observability().tracer().marks();
  ASSERT_FALSE(marks.empty());
  for (const auto& m : marks)
    EXPECT_GE(m.time, 1000.0) << m.entity << ' ' << m.event;
}

TEST(ThreadedSession, DestroyedWithoutWaitingOutArmedTimers) {
  // Every task finishes in a few ms but leaves its 5000 s deadline (5 s
  // of wall time) armed. Destruction drops timers that are not yet due.
  std::optional<Session> session;
  session.emplace(threaded_config());
  session->submit_pilot(small_pilot());
  for (int i = 0; i < 20; ++i) {
    auto td = make_simple_task("t" + std::to_string(i), 1, 0, 1.0);
    td.retry.attempt_timeout_s = 5000.0;
    session->task_manager().submit(std::move(td));
  }
  session->run();
  EXPECT_EQ(session->task_manager().counters().done, 20u);
  const auto t0 = std::chrono::steady_clock::now();
  session.reset();
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count(),
            1.0);
}

TEST(ThreadedSession, CancelledAttemptFreesItsWorkerAtOnce) {
  // One worker: if a cancelled 5000 s attempt (5 s of wall time) kept it
  // busy, the next task could not run until that attempt would have ended.
  SessionConfig cfg = threaded_config();
  cfg.worker_threads = 1;
  Session session{cfg};
  session.submit_pilot(small_pilot());
  auto hog =
      session.task_manager().submit(make_simple_task("hog", 1, 0, 5000.0));
  const auto started = [&] {
    const auto marks = session.observability().tracer().marks();
    return std::any_of(marks.begin(), marks.end(), [&](const obs::Mark& m) {
      return m.entity == hog->uid() && m.event == hpc::events::kExecStart;
    });
  };
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!started() && std::chrono::steady_clock::now() < give_up)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(started());

  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(session.task_manager().cancel(hog));
  auto quick =
      session.task_manager().submit(make_simple_task("quick", 1, 0, 1.0));
  session.run();
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count(),
            1.0);
  EXPECT_EQ(hog->state(), TaskState::kCancelled);
  EXPECT_EQ(quick->state(), TaskState::kDone);
}

}  // namespace
}  // namespace impress::rp
