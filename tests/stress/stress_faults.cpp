// TSan-targeted stress tests for the fault-tolerance subsystem: injected
// task failures, pilot outages, retry resubmission, and deadline eviction
// all racing against user-driven cancel() and wait_all() on real worker
// threads. A real race trips ThreadSanitizer (or deadlocks into the test
// timeout) rather than flaking.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "runtime/session.hpp"
#include "runtime/task_manager.hpp"

namespace impress::rp {
namespace {

PilotDescription node(std::uint32_t cores) {
  PilotDescription pd;
  pd.nodes = {
      hpc::NodeSpec{.name = "n", .cores = cores, .gpus = 0, .mem_gb = 64.0}};
  return pd;
}

SessionConfig threaded(std::uint64_t seed) {
  SessionConfig cfg;
  cfg.mode = ExecutionMode::kThreaded;
  cfg.seed = seed;
  cfg.time_scale = 1e-4;  // 100 sim-seconds ~ 10 ms wall
  cfg.worker_threads = 16;
  return cfg;
}

TEST(StressFaults, InjectedFailuresWithRetriesUnderLoad) {
  auto cfg = threaded(91);
  cfg.faults.task_failure_rate = 0.3;
  cfg.faults.slow_task_rate = 0.2;
  cfg.faults.slow_factor = 2.0;
  Session session{cfg};
  session.submit_pilot(node(16));
  const int n = 48;
  std::vector<TaskPtr> tasks;
  for (int i = 0; i < n; ++i) {
    auto td = make_simple_task("t" + std::to_string(i), 1, 0, 50.0);
    td.retry = RetryPolicy{.max_attempts = 3, .backoff_initial_s = 5.0};
    tasks.push_back(session.task_manager().submit(std::move(td)));
  }
  session.run();
  auto& tmgr = session.task_manager();
  const TaskManager::Counters c = tmgr.counters();
  EXPECT_EQ(tmgr.outstanding(), 0u);
  EXPECT_EQ(c.done + c.failed + c.cancelled,
            static_cast<std::size_t>(n));
  for (const auto& t : tasks) EXPECT_TRUE(is_terminal(t->state()));
  // A 30% failure rate over 48 tasks must have triggered retries.
  EXPECT_GT(c.retried, 0u);
}

TEST(StressFaults, CancelRacesFaultInjectionAndRetry) {
  auto cfg = threaded(17);
  cfg.faults.task_failure_rate = 0.4;
  Session session{cfg};
  session.submit_pilot(node(16));
  const int n = 40;
  std::vector<TaskPtr> tasks;
  for (int i = 0; i < n; ++i) {
    auto td = make_simple_task("t" + std::to_string(i), 1, 0, 100.0);
    td.retry = RetryPolicy{.max_attempts = 4, .backoff_initial_s = 20.0};
    tasks.push_back(session.task_manager().submit(std::move(td)));
  }
  // Cancel every other task from a foreign thread while attempts fail,
  // back off, and resubmit underneath.
  std::thread canceller([&] {
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < n; i += 2)
        (void)session.task_manager().cancel(tasks[static_cast<std::size_t>(i)]);
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  });
  session.run();
  canceller.join();
  auto& tmgr = session.task_manager();
  const TaskManager::Counters c = tmgr.counters();
  EXPECT_EQ(tmgr.outstanding(), 0u);
  EXPECT_EQ(c.done + c.failed + c.cancelled,
            static_cast<std::size_t>(n));
  for (const auto& t : tasks) EXPECT_TRUE(is_terminal(t->state()));
  // Repeated cancel of an already-terminal task stays false.
  for (const auto& t : tasks) EXPECT_FALSE(session.task_manager().cancel(t));
}

TEST(StressFaults, PilotOutageDrainsAndReroutesUnderLoad) {
  auto cfg = threaded(7);
  // The outage fuse (300 ms wall at this time_scale) must be long enough
  // that setup + 32 submits finish first even under TSan's overhead, and
  // task durations (200 ms each, ~800 ms makespan) long enough that the
  // doomed pilot still holds queued + executing work when it blows.
  cfg.faults.pilot_outages.push_back(
      PilotOutage{.pilot_index = 0, .at_s = 3000.0});
  Session session{cfg};
  auto doomed = session.submit_pilot(node(8));
  session.submit_pilot(node(8));
  const int n = 32;
  std::vector<TaskPtr> tasks;
  for (int i = 0; i < n; ++i) {
    auto td = make_simple_task("t" + std::to_string(i), 2, 0, 2000.0);
    td.retry = RetryPolicy{.max_attempts = 3, .backoff_initial_s = 5.0};
    tasks.push_back(session.task_manager().submit(std::move(td)));
  }
  session.run();
  EXPECT_EQ(doomed->state(), PilotState::kFailed);
  auto& tmgr = session.task_manager();
  const TaskManager::Counters c = tmgr.counters();
  EXPECT_EQ(tmgr.outstanding(), 0u);
  for (const auto& t : tasks) EXPECT_TRUE(is_terminal(t->state()));
  // The outage must have evicted or drained something.
  EXPECT_GT(c.retried + c.requeued, 0u);
}

TEST(StressFaults, SpotReclaimRacesEvictionAndReturn) {
  // Spot capacity reclaimed and returned while real worker threads churn:
  // the eviction path (drain + executor cancel), the reactivation path
  // (FAILED -> ACTIVE + scheduler kick) and retry resubmission all race.
  // TSan/lockdep catch ordering bugs; the invariants below catch leaks.
  auto cfg = threaded(61);
  cfg.faults.spot_reclaims.push_back(
      SpotReclaim{.pilot_index = 0, .at_s = 3000.0, .down_s = 5000.0});
  Session session{cfg};
  auto spot = session.submit_pilot(node(8));
  session.submit_pilot(node(8));
  const int n = 32;
  std::vector<TaskPtr> tasks;
  for (int i = 0; i < n; ++i) {
    auto td = make_simple_task("t" + std::to_string(i), 2, 0, 2000.0);
    td.retry = RetryPolicy{.max_attempts = 3, .backoff_initial_s = 5.0};
    tasks.push_back(session.task_manager().submit(std::move(td)));
  }
  session.run();
  auto& tmgr = session.task_manager();
  const TaskManager::Counters c = tmgr.counters();
  EXPECT_EQ(tmgr.outstanding(), 0u);
  EXPECT_EQ(c.done + c.failed + c.cancelled,
            static_cast<std::size_t>(n));
  for (const auto& t : tasks) EXPECT_TRUE(is_terminal(t->state()));
  EXPECT_GT(c.retried + c.requeued, 0u);
  // The window (500 ms wall) closes long before the retried workload
  // drains, so the pilot must have come back.
  EXPECT_EQ(spot->state(), PilotState::kActive);
}

// Regression (wait_all early return) under churn: terminal callbacks keep
// submitting follow-on work; wait_all must observe the full chain.
TEST(StressFaults, WaitAllSurvivesCallbackResubmissionChurn) {
  auto cfg = threaded(29);
  cfg.faults.task_failure_rate = 0.2;
  Session session{cfg};
  session.submit_pilot(node(16));
  std::atomic<int> chained{0};
  const int roots = 16;
  const int depth = 3;
  session.task_manager().add_callback([&](const TaskPtr& task) {
    const auto it = task->description().metadata.find("depth");
    const int d = it == task->description().metadata.end()
                      ? 0
                      : std::stoi(it->second);
    if (d >= depth) return;
    chained.fetch_add(1);
    auto td = make_simple_task(task->description().name + ".c", 1, 0, 20.0);
    td.retry = RetryPolicy{.max_attempts = 2, .backoff_initial_s = 2.0};
    td.metadata["depth"] = std::to_string(d + 1);
    (void)session.task_manager().submit(std::move(td));
  });
  for (int i = 0; i < roots; ++i) {
    auto td = make_simple_task("r" + std::to_string(i), 1, 0, 20.0);
    td.retry = RetryPolicy{.max_attempts = 2, .backoff_initial_s = 2.0};
    (void)session.task_manager().submit(std::move(td));
  }
  session.run();
  auto& tmgr = session.task_manager();
  const TaskManager::Counters c = tmgr.counters();
  // Every root chained to full depth: 16 * (1 + 3) tasks total.
  EXPECT_EQ(chained.load(), roots * depth);
  EXPECT_EQ(c.submitted, static_cast<std::size_t>(roots * (depth + 1)));
  EXPECT_EQ(c.done + c.failed + c.cancelled, c.submitted);
  EXPECT_EQ(tmgr.outstanding(), 0u);
}

TEST(StressFaults, AttemptDeadlinesRaceCompletions) {
  auto cfg = threaded(53);
  Session session{cfg};
  session.submit_pilot(node(16));
  const int n = 32;
  std::vector<TaskPtr> tasks;
  for (int i = 0; i < n; ++i) {
    // Durations straddle the deadline so evictions race completions.
    auto td =
        make_simple_task("t" + std::to_string(i), 1, 0, 40.0 + 2.0 * i);
    td.retry = RetryPolicy{.max_attempts = 2,
                           .backoff_initial_s = 2.0,
                           .backoff_multiplier = 2.0,
                           .backoff_jitter = 0.0,
                           .attempt_timeout_s = 70.0};
    tasks.push_back(session.task_manager().submit(std::move(td)));
  }
  session.run();
  auto& tmgr = session.task_manager();
  const TaskManager::Counters c = tmgr.counters();
  EXPECT_EQ(tmgr.outstanding(), 0u);
  EXPECT_EQ(c.done + c.failed + c.cancelled,
            static_cast<std::size_t>(n));
  for (const auto& t : tasks) EXPECT_TRUE(is_terminal(t->state()));
}

}  // namespace
}  // namespace impress::rp
