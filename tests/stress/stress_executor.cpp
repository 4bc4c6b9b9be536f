// TSan-targeted stress tests for the runtime: scheduler placement racing
// completions, task cancellation racing normal completion, and pilot
// teardown while tasks are in flight. All in threaded mode, i.e. on
// real worker threads — these are the interleavings the simulated engine
// can never produce.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "obs/obs.hpp"
#include "runtime/executor.hpp"
#include "runtime/pilot.hpp"
#include "runtime/session.hpp"

namespace impress::rp {
namespace {

using namespace std::chrono_literals;

SessionConfig stress_config(std::uint64_t seed = 7) {
  SessionConfig cfg;
  cfg.mode = ExecutionMode::kThreaded;
  cfg.seed = seed;
  cfg.time_scale = 1e-3;  // 1 virtual second = 1 ms wall
  cfg.worker_threads = 8;
  return cfg;
}

PilotDescription stress_pilot() {
  PilotDescription pd;
  pd.nodes = {hpc::NodeSpec{.name = "n", .cores = 4, .gpus = 1, .mem_gb = 32.0}};
  pd.policy = SchedulerPolicy::kBackfill;
  return pd;
}

TEST(StressExecutor, CompletionVsCancellationRace) {
  Session session{stress_config()};
  session.submit_pilot(stress_pilot());
  constexpr int kTasks = 32;
  std::vector<TaskPtr> tasks;
  tasks.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    TaskDescription td;
    td.name = "t" + std::to_string(i);
    td.resources = {.cores = 1, .gpus = 0, .mem_gb = 0.0};
    // Several short phases: cancels land between phase boundaries.
    for (int p = 0; p < 4; ++p)
      td.phases.push_back(TaskPhase{.name = "p", .duration_s = 3.0, .cores = 1});
    tasks.push_back(session.task_manager().submit(std::move(td)));
  }
  // Two threads cancel overlapping halves while tasks queue, execute and
  // complete — the cancel path (TaskManager -> Pilot -> Executor) races
  // the completion path (Executor -> Pilot -> TaskManager) head-on.
  std::thread cancel_front([&] {
    for (int i = 0; i < kTasks * 3 / 4; ++i) {
      (void)session.task_manager().cancel(tasks[static_cast<std::size_t>(i)]);
      std::this_thread::sleep_for(200us);
    }
  });
  std::thread cancel_back([&] {
    for (int i = kTasks - 1; i >= kTasks / 4; --i) {
      (void)session.task_manager().cancel(tasks[static_cast<std::size_t>(i)]);
      std::this_thread::sleep_for(200us);
    }
  });
  cancel_front.join();
  cancel_back.join();
  session.run();

  std::size_t terminal = 0;
  for (const auto& t : tasks) {
    EXPECT_TRUE(is_terminal(t->state()))
        << t->uid() << " stuck in " << to_string(t->state());
    if (is_terminal(t->state())) ++terminal;
  }
  EXPECT_EQ(terminal, static_cast<std::size_t>(kTasks));
  EXPECT_EQ(session.task_manager().outstanding(), 0u);
  const TaskManager::Counters counters = session.task_manager().counters();
  EXPECT_EQ(counters.done + counters.failed + counters.cancelled,
            static_cast<std::size_t>(kTasks));
}

TEST(StressExecutor, PilotTeardownWhileTasksInFlight) {
  // Direct pilot + executor wiring (no TaskManager): enqueue a burst,
  // then finish() the pilot from another thread while completions and
  // cancels are landing. Every placed task must still reach a terminal
  // state exactly once, and nothing may race the teardown. A threaded
  // session supplies the clock the executor waits on; it is destroyed,
  // joining its pool, before the pilot and executor.
  std::optional<Session> session;
  session.emplace(stress_config());
  obs::Observability obs;
  Pilot pilot("pilot.stress", stress_pilot(), obs,
              [&session] { return session->now(); });
  Executor exec(pilot, obs, common::Rng(11), /*faults=*/nullptr, *session);
  std::atomic<int> terminal{0};
  pilot.attach(
      exec,
      [&](const TaskPtr&) { terminal.fetch_add(1, std::memory_order_relaxed); },
      /*on_task_requeue=*/{});
  pilot.activate();

  constexpr int kTasks = 24;
  std::vector<TaskPtr> tasks;
  tasks.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    auto td = make_simple_task("t" + std::to_string(i), 1, 0, 5.0);
    td.validate_and_normalize();
    auto task = std::make_shared<Task>("task." + std::to_string(i), std::move(td));
    tasks.push_back(task);
    EXPECT_TRUE(pilot.try_enqueue(task));
  }

  std::thread finisher([&] {
    std::this_thread::sleep_for(3ms);
    pilot.finish();  // no new placements; running tasks drain
  });
  std::thread canceller([&] {
    for (const auto& t : tasks) {
      (void)pilot.cancel(t);
      std::this_thread::sleep_for(300us);
    }
  });
  finisher.join();
  canceller.join();
  // An attempt that ended just before its cancel turns terminal on a
  // worker shortly after.
  const auto give_up = std::chrono::steady_clock::now() + 30s;
  while (terminal.load() < kTasks && std::chrono::steady_clock::now() < give_up)
    std::this_thread::sleep_for(1ms);
  session.reset();

  EXPECT_EQ(pilot.state(), PilotState::kDone);
  EXPECT_EQ(pilot.running(), 0u);
  // Everything the canceller or executor touched reached a terminal
  // state exactly once; nothing is left holding an allocation.
  EXPECT_EQ(terminal.load(), kTasks);
  for (const auto& t : tasks)
    EXPECT_TRUE(is_terminal(t->state()))
        << t->uid() << " stuck in " << to_string(t->state());
  EXPECT_EQ(pilot.pool().free_cores(), pilot.pool().total_cores());
}

TEST(StressExecutor, BackfillPlacementHammer) {
  // Heterogeneous widths force the backfill scheduler to make placement
  // decisions concurrently with completions releasing resources from
  // worker threads — the try_schedule reentrancy path.
  Session session{stress_config(13)};
  session.submit_pilot(stress_pilot());
  constexpr int kTasks = 60;
  for (int i = 0; i < kTasks; ++i)
    session.task_manager().submit(make_simple_task(
        "t" + std::to_string(i), 1 + static_cast<std::uint32_t>(i % 4),
        i % 5 == 0 ? 1 : 0, 2.0 + i % 3));
  session.run();
  EXPECT_EQ(session.task_manager().counters().done,
            static_cast<std::size_t>(kTasks));
  EXPECT_EQ(session.task_manager().outstanding(), 0u);
}

}  // namespace
}  // namespace impress::rp
