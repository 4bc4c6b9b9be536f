#include "runtime/task_manager.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "runtime/session.hpp"

namespace impress::rp {
namespace {

PilotDescription node(std::uint32_t cores, std::uint32_t gpus) {
  PilotDescription pd;
  pd.nodes = {hpc::NodeSpec{.name = "n", .cores = cores, .gpus = gpus,
                            .mem_gb = 64.0}};
  return pd;
}

TEST(TaskManager, RoutesToPilotThatFits) {
  Session session{SessionConfig{}};
  auto cpu_pilot = session.submit_pilot(node(8, 0));
  auto gpu_pilot = session.submit_pilot(node(2, 2));
  auto gpu_task = session.task_manager().submit(make_simple_task("g", 1, 1, 10.0));
  auto wide_task = session.task_manager().submit(make_simple_task("w", 8, 0, 10.0));
  session.run();
  EXPECT_EQ(gpu_task->state(), TaskState::kDone);
  EXPECT_EQ(wide_task->state(), TaskState::kDone);
  // The GPU task can only have run on the GPU pilot, and vice versa.
  EXPECT_FALSE(gpu_pilot->recorder().intervals().empty());
  EXPECT_FALSE(cpu_pilot->recorder().intervals().empty());
}

TEST(TaskManager, LeastLoadedRouting) {
  Session session{SessionConfig{}};
  auto p1 = session.submit_pilot(node(4, 0));
  auto p2 = session.submit_pilot(node(4, 0));
  std::vector<TaskPtr> tasks;
  for (int i = 0; i < 6; ++i)
    tasks.push_back(session.task_manager().submit(
        make_simple_task("t" + std::to_string(i), 2, 0, 100.0)));
  session.run();
  // Load should be spread: both pilots executed some tasks.
  EXPECT_GE(p1->recorder().intervals().size(), 2u);
  EXPECT_GE(p2->recorder().intervals().size(), 2u);
}

TEST(TaskManager, BatchSubmitPreservesOrderAndCount) {
  Session session{SessionConfig{}};
  session.submit_pilot(node(4, 0));
  std::vector<TaskDescription> tds;
  for (int i = 0; i < 5; ++i)
    tds.push_back(make_simple_task("t" + std::to_string(i), 1, 0, 1.0));
  const auto tasks = session.task_manager().submit(std::move(tds));
  ASSERT_EQ(tasks.size(), 5u);
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(tasks[i]->description().name, "t" + std::to_string(i));
  // Uids are sequential.
  EXPECT_EQ(tasks[0]->uid(), "task.000000");
  EXPECT_EQ(tasks[4]->uid(), "task.000004");
}

TEST(TaskManager, FinishedPilotNotRouted) {
  Session session{SessionConfig{}};
  auto pilot = session.submit_pilot(node(4, 0));
  pilot->finish();
  EXPECT_THROW(session.task_manager().submit(make_simple_task("t", 1, 0, 1.0)),
               std::runtime_error);
}

TEST(TaskManager, CancelUnknownTaskFails) {
  Session session{SessionConfig{}};
  session.submit_pilot(node(4, 0));
  // A task that was never submitted to this manager.
  auto foreign = std::make_shared<Task>("task.foreign",
                                        make_simple_task("f", 1, 0, 1.0));
  EXPECT_FALSE(session.task_manager().cancel(foreign));
}

TEST(TaskManager, MultipleCallbacksAllFire) {
  Session session{SessionConfig{}};
  session.submit_pilot(node(4, 0));
  int a = 0, b = 0;
  session.task_manager().add_callback([&](const TaskPtr&) { ++a; });
  session.task_manager().add_callback([&](const TaskPtr&) { ++b; });
  session.task_manager().submit(make_simple_task("t", 1, 0, 1.0));
  session.run();
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
}

// Regression (cancel TOCTOU): the terminal-state check and the pilot
// lookup happen atomically under the manager lock, so repeated cancels
// return consistently — true exactly once, false ever after.
TEST(TaskManager, CancelReturnsTrueOnceThenFalse) {
  Session session{SessionConfig{}};
  session.submit_pilot(node(4, 0));
  const auto task =
      session.task_manager().submit(make_simple_task("t", 1, 0, 100.0));
  session.call_after(1.0, [&] {
    EXPECT_TRUE(session.task_manager().cancel(task));
  });
  session.call_after(2.0, [&] {
    EXPECT_FALSE(session.task_manager().cancel(task));
  });
  session.run();
  EXPECT_EQ(task->state(), TaskState::kCancelled);
  EXPECT_EQ(session.task_manager().counters().cancelled, 1u);
  EXPECT_EQ(session.task_manager().outstanding(), 0u);
}

// Regression (cancel TOCTOU): a task waiting out a retry backoff has no
// pilot; cancel must still find and finalize it instead of returning a
// spurious false.
TEST(TaskManager, CancelDuringRetryBackoffFinalizes) {
  Session session{SessionConfig{}};
  session.submit_pilot(node(4, 0));
  auto td = make_simple_task("flaky", 1, 0, 1.0, [](Task&) -> std::any {
    throw std::runtime_error("fails first");
  });
  td.retry = RetryPolicy{.max_attempts = 2, .backoff_initial_s = 1000.0};
  const auto task = session.task_manager().submit(std::move(td));
  // Well inside the backoff window (attempt 1 fails at ~1s).
  session.call_after(10.0, [&] {
    EXPECT_TRUE(session.task_manager().cancel(task));
  });
  session.run();
  EXPECT_EQ(task->state(), TaskState::kCancelled);
  EXPECT_EQ(session.task_manager().counters().cancelled, 1u);
  EXPECT_EQ(session.task_manager().outstanding(), 0u);
  // The armed resubmission became a no-op: no second attempt ran.
  EXPECT_EQ(task->attempt(), 1);
}

// Regression (wait_all early return): a terminal callback may submit
// follow-on work; wait_all must not return between the last task's
// completion and its callback finishing.
TEST(TaskManager, WaitAllWaitsForCallbackSubmissions) {
  SessionConfig cfg;
  cfg.mode = ExecutionMode::kThreaded;
  cfg.time_scale = 1e-4;
  Session session{cfg};
  session.submit_pilot(node(4, 0));
  std::atomic<bool> chained{false};
  session.task_manager().add_callback([&](const TaskPtr& task) {
    if (task->description().name != "root") return;
    // Simulate decision-making latency before the follow-on submission.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    chained.store(true);
    (void)session.task_manager().submit(
        make_simple_task("chained", 1, 0, 50.0));
  });
  (void)session.task_manager().submit(make_simple_task("root", 1, 0, 50.0));
  session.run();  // wait_all
  EXPECT_TRUE(chained.load());
  EXPECT_EQ(session.task_manager().counters().done, 2u);
  EXPECT_EQ(session.task_manager().outstanding(), 0u);
}

TEST(TaskManager, FailedTasksCountedSeparately) {
  Session session{SessionConfig{}};
  session.submit_pilot(node(4, 0));
  session.task_manager().submit(make_simple_task("ok", 1, 0, 1.0));
  session.task_manager().submit(make_simple_task(
      "bad", 1, 0, 1.0,
      [](Task&) -> std::any { throw std::runtime_error("x"); }));
  session.run();
  EXPECT_EQ(session.task_manager().counters().done, 1u);
  EXPECT_EQ(session.task_manager().counters().failed, 1u);
  EXPECT_EQ(session.task_manager().outstanding(), 0u);
}

}  // namespace
}  // namespace impress::rp
