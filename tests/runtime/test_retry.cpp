// Retry / backoff / per-attempt deadline coverage for the fault-tolerance
// subsystem (docs/fault_tolerance.md): failed attempts are resubmitted
// under the task's RetryPolicy, deadlines evict overrunning attempts, and
// pilot outages re-route work to surviving pilots.

#include <gtest/gtest.h>

#include <stdexcept>

#include "hpc/analytics.hpp"
#include "runtime/session.hpp"
#include "runtime/task_manager.hpp"

namespace impress::rp {
namespace {

PilotDescription node(std::uint32_t cores, std::uint32_t gpus = 0) {
  PilotDescription pd;
  pd.nodes = {hpc::NodeSpec{.name = "n", .cores = cores, .gpus = gpus,
                            .mem_gb = 64.0}};
  return pd;
}

/// Work that throws until the given attempt succeeds.
WorkFn flaky_until(int succeeds_on_attempt) {
  return [succeeds_on_attempt](Task& t) -> std::any {
    if (t.attempt() < succeeds_on_attempt)
      throw std::runtime_error("flaky (attempt " +
                               std::to_string(t.attempt()) + ")");
    return t.attempt();
  };
}

TEST(RetryPolicy, BackoffDelayIsExponential) {
  const RetryPolicy p{.max_attempts = 5,
                      .backoff_initial_s = 2.0,
                      .backoff_multiplier = 3.0,
                      .backoff_jitter = 0.0,
                      .attempt_timeout_s = 0.0};
  common::Rng rng(1);
  EXPECT_DOUBLE_EQ(p.backoff_delay(2, rng), 2.0);
  EXPECT_DOUBLE_EQ(p.backoff_delay(3, rng), 6.0);
  EXPECT_DOUBLE_EQ(p.backoff_delay(4, rng), 18.0);
}

TEST(RetryPolicy, JitterStaysWithinBounds) {
  const RetryPolicy p{.max_attempts = 3,
                      .backoff_initial_s = 10.0,
                      .backoff_multiplier = 2.0,
                      .backoff_jitter = 0.5,
                      .attempt_timeout_s = 0.0};
  common::Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    const double d = p.backoff_delay(2, rng);
    EXPECT_GE(d, 5.0);
    EXPECT_LE(d, 15.0);
  }
}

TEST(RetryPolicy, InvalidPoliciesRejectedAtValidation) {
  auto td = make_simple_task("bad", 1, 0, 1.0);
  td.retry.max_attempts = 0;
  EXPECT_THROW(Task("task.x", td), std::invalid_argument);
  td.retry.max_attempts = 2;
  td.retry.backoff_initial_s = -1.0;
  EXPECT_THROW(Task("task.y", td), std::invalid_argument);
  td.retry.backoff_initial_s = 0.0;
  td.retry.attempt_timeout_s = -5.0;
  EXPECT_THROW(Task("task.z", td), std::invalid_argument);
}

TEST(Retry, FlakyWorkRetriedToSuccess) {
  Session session{SessionConfig{}};
  session.submit_pilot(node(8));
  auto td = make_simple_task("flaky", 1, 0, 10.0, flaky_until(3));
  td.retry = RetryPolicy{.max_attempts = 3, .backoff_initial_s = 5.0};
  const auto task = session.task_manager().submit(std::move(td));
  session.run();
  EXPECT_EQ(task->state(), TaskState::kDone);
  EXPECT_EQ(task->attempt(), 3);
  EXPECT_EQ(session.task_manager().counters().done, 1u);
  EXPECT_EQ(session.task_manager().counters().failed, 0u);
  EXPECT_EQ(session.task_manager().counters().retried, 2u);
  // Two runs plus two backoffs (5s then 10s) must have elapsed.
  EXPECT_GE(session.now(), 10.0 + 5.0 + 10.0);
}

TEST(Retry, ExhaustedPolicyIsTerminalFailure) {
  Session session{SessionConfig{}};
  session.submit_pilot(node(8));
  auto td = make_simple_task("doomed", 1, 0, 1.0, [](Task&) -> std::any {
    throw std::runtime_error("always fails");
  });
  td.retry = RetryPolicy{.max_attempts = 2};
  const auto task = session.task_manager().submit(std::move(td));
  session.run();
  EXPECT_EQ(task->state(), TaskState::kFailed);
  EXPECT_EQ(task->attempt(), 2);
  EXPECT_EQ(session.task_manager().counters().failed, 1u);
  EXPECT_EQ(session.task_manager().counters().retried, 1u);
  EXPECT_EQ(session.task_manager().outstanding(), 0u);
}

TEST(Retry, InjectedFaultsFlowThroughPolicy) {
  SessionConfig cfg;
  cfg.faults.task_failure_rate = 1.0;  // every attempt crashes
  Session session{cfg};
  session.submit_pilot(node(8));
  auto td = make_simple_task("injected", 1, 0, 10.0);
  td.retry = RetryPolicy{.max_attempts = 2, .backoff_initial_s = 1.0};
  const auto task = session.task_manager().submit(std::move(td));
  session.run();
  EXPECT_EQ(task->state(), TaskState::kFailed);
  EXPECT_EQ(task->attempt(), 2);
  EXPECT_NE(task->error().find("injected fault"), std::string::npos);
  EXPECT_EQ(session.task_manager().counters().retried, 1u);
}

TEST(Retry, AttemptDeadlineEvictsAndRetries) {
  Session session{SessionConfig{}};
  session.submit_pilot(node(8));
  auto td = make_simple_task("slowpoke", 1, 0, 100.0);
  td.retry = RetryPolicy{.max_attempts = 2,
                         .backoff_initial_s = 1.0,
                         .backoff_multiplier = 2.0,
                         .backoff_jitter = 0.0,
                         .attempt_timeout_s = 10.0};
  const auto task = session.task_manager().submit(std::move(td));
  session.run();
  EXPECT_EQ(task->state(), TaskState::kFailed);
  EXPECT_EQ(task->attempt(), 2);
  EXPECT_EQ(task->error(), "attempt deadline exceeded");
  EXPECT_EQ(session.task_manager().counters().timed_out, 2u);
  EXPECT_EQ(session.task_manager().counters().retried, 1u);
  // Both attempts were cut at 10s, not run to 100s.
  EXPECT_LT(session.now(), 100.0);
}

TEST(Retry, DeadlineDoesNotFireForFastTasks) {
  Session session{SessionConfig{}};
  session.submit_pilot(node(8));
  auto td = make_simple_task("quick", 1, 0, 5.0);
  td.retry = RetryPolicy{.max_attempts = 3,
                         .backoff_initial_s = 1.0,
                         .backoff_multiplier = 2.0,
                         .backoff_jitter = 0.0,
                         .attempt_timeout_s = 50.0};
  const auto task = session.task_manager().submit(std::move(td));
  session.run();
  EXPECT_EQ(task->state(), TaskState::kDone);
  EXPECT_EQ(task->attempt(), 1);
  EXPECT_EQ(session.task_manager().counters().timed_out, 0u);
}

TEST(Retry, ResubmissionPrefersDifferentPilot) {
  Session session{SessionConfig{}};
  auto p1 = session.submit_pilot(node(8));
  auto p2 = session.submit_pilot(node(8));
  auto td = make_simple_task("mover", 1, 0, 10.0, flaky_until(2));
  td.retry = RetryPolicy{.max_attempts = 2, .backoff_initial_s = 1.0};
  const auto task = session.task_manager().submit(std::move(td));
  session.run();
  EXPECT_EQ(task->state(), TaskState::kDone);
  EXPECT_EQ(task->attempt(), 2);
  // The failed first attempt ran on one pilot, the retry on the other.
  EXPECT_FALSE(p1->recorder().intervals().empty());
  EXPECT_FALSE(p2->recorder().intervals().empty());
}

TEST(Retry, PilotOutageReroutesWorkToSurvivor) {
  SessionConfig cfg;
  cfg.faults.pilot_outages.push_back(
      PilotOutage{.pilot_index = 0, .at_s = 50.0});
  Session session{cfg};
  auto doomed = session.submit_pilot(node(4));
  auto survivor = session.submit_pilot(node(4));
  std::vector<TaskPtr> tasks;
  for (int i = 0; i < 8; ++i) {
    auto td = make_simple_task("t" + std::to_string(i), 2, 0, 100.0);
    td.retry = RetryPolicy{.max_attempts = 3, .backoff_initial_s = 1.0};
    tasks.push_back(session.task_manager().submit(std::move(td)));
  }
  session.run();
  EXPECT_EQ(doomed->state(), PilotState::kFailed);
  for (const auto& t : tasks) EXPECT_EQ(t->state(), TaskState::kDone);
  // Executing tasks on the dead pilot were evicted and retried; queued
  // ones were drained and re-routed without consuming an attempt.
  EXPECT_GT(session.task_manager().counters().retried +
                session.task_manager().counters().requeued,
            0u);
  EXPECT_EQ(session.task_manager().outstanding(), 0u);
}

TEST(Retry, NoSurvivingPilotMeansTerminalFailure) {
  SessionConfig cfg;
  cfg.faults.pilot_outages.push_back(
      PilotOutage{.pilot_index = 0, .at_s = 10.0});
  Session session{cfg};
  session.submit_pilot(node(4));
  auto td = make_simple_task("stranded", 1, 0, 100.0);
  td.retry = RetryPolicy{.max_attempts = 5, .backoff_initial_s = 1.0};
  const auto task = session.task_manager().submit(std::move(td));
  session.run();
  EXPECT_EQ(task->state(), TaskState::kFailed);
  EXPECT_EQ(session.task_manager().outstanding(), 0u);
}

TEST(Retry, SpotReclaimEvictsAndPilotReturns) {
  // Spot capacity on pilot 0 is reclaimed at t=50 for 100s: executing
  // work is evicted onto the survivor (the PR-2 outage path) and the
  // pilot re-enters ACTIVE when the window ends — unlike a plain
  // PilotOutage, which is forever.
  SessionConfig cfg;
  cfg.faults.spot_reclaims.push_back(
      SpotReclaim{.pilot_index = 0, .at_s = 50.0, .down_s = 100.0});
  Session session{cfg};
  auto spot = session.submit_pilot(node(4));
  session.submit_pilot(node(4));
  std::vector<TaskPtr> tasks;
  for (int i = 0; i < 8; ++i) {
    auto td = make_simple_task("t" + std::to_string(i), 2, 0, 100.0);
    td.retry = RetryPolicy{.max_attempts = 3, .backoff_initial_s = 1.0};
    tasks.push_back(session.task_manager().submit(std::move(td)));
  }
  session.run();
  for (const auto& t : tasks) EXPECT_EQ(t->state(), TaskState::kDone);
  // The window closed before the workload drained, so the pilot is back.
  EXPECT_EQ(spot->state(), PilotState::kActive);
  EXPECT_GT(session.task_manager().counters().retried +
                session.task_manager().counters().requeued,
            0u);
  bool reactivated = false;
  for (const auto& e : session.observability().tracer().marks())
    if (e.event == hpc::events::kPilotReactivated) reactivated = true;
  EXPECT_TRUE(reactivated);
}

TEST(Retry, ReturnedSpotPilotAcceptsNewWork) {
  // Single spot pilot, no survivor: work submitted after the window ends
  // lands on the returned pilot. (Work evicted *during* the window would
  // fail terminally — there is nowhere to retry — which is why campaigns
  // pair spot pilots with at least one durable one.)
  SessionConfig cfg;
  cfg.faults.spot_reclaims.push_back(
      SpotReclaim{.pilot_index = 0, .at_s = 10.0, .down_s = 40.0});
  Session session{cfg};
  auto spot = session.submit_pilot(node(4));
  TaskPtr late;
  session.call_after(60.0, [&] {
    auto td = make_simple_task("late", 1, 0, 5.0);
    late = session.task_manager().submit(std::move(td));
  });
  session.run();
  EXPECT_EQ(spot->state(), PilotState::kActive);
  ASSERT_NE(late, nullptr);
  EXPECT_EQ(late->state(), TaskState::kDone);
}

TEST(Retry, SpotReclaimedRunIsDeterministic) {
  auto run_once = [] {
    SessionConfig cfg;
    cfg.seed = 77;
    cfg.faults.spot_reclaims.push_back(
        SpotReclaim{.pilot_index = 1, .at_s = 30.0, .down_s = 60.0});
    Session session{cfg};
    session.submit_pilot(node(4));
    session.submit_pilot(node(4));
    for (int i = 0; i < 12; ++i) {
      auto td = make_simple_task("t" + std::to_string(i), 2, 0, 50.0);
      td.retry = RetryPolicy{.max_attempts = 3, .backoff_initial_s = 2.0};
      (void)session.task_manager().submit(std::move(td));
    }
    session.run();
    const TaskManager::Counters c = session.task_manager().counters();
    return std::tuple{c.done, c.failed, c.retried, c.requeued, session.now(),
                      session.observability().tracer().marks().size()};
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Retry, FaultedRunIsDeterministic) {
  auto run_once = [] {
    SessionConfig cfg;
    cfg.seed = 1234;
    cfg.faults.task_failure_rate = 0.3;
    cfg.faults.slow_task_rate = 0.2;
    Session session{cfg};
    session.submit_pilot(node(8));
    for (int i = 0; i < 16; ++i) {
      auto td = make_simple_task("t" + std::to_string(i), 1, 0, 20.0);
      td.retry = RetryPolicy{.max_attempts = 3, .backoff_initial_s = 2.0};
      (void)session.task_manager().submit(std::move(td));
    }
    session.run();
    const TaskManager::Counters c = session.task_manager().counters();
    return std::tuple{c.done, c.failed, c.retried, session.now(),
                      session.observability().tracer().marks().size()};
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace impress::rp
