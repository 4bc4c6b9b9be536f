// End-to-end runtime behaviour on the simulated (discrete-event) executor:
// state machines, timing, utilization accounting, lifecycle marks,
// cancellation, phases, and failure propagation.

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string_view>

#include "hpc/analytics.hpp"
#include "runtime/session.hpp"

namespace impress::rp {
namespace {

// Time of the first `event` mark recorded for `entity`.
std::optional<double> time_of(const std::vector<obs::Mark>& marks,
                              std::string_view entity, std::string_view event) {
  for (const auto& m : marks)
    if (m.entity == entity && m.event == event) return m.time;
  return std::nullopt;
}

PilotDescription small_pilot(double bootstrap = 0.0, double setup = 0.0) {
  PilotDescription pd;
  pd.nodes = {hpc::NodeSpec{.name = "n", .cores = 4, .gpus = 1, .mem_gb = 32.0}};
  pd.bootstrap_s = bootstrap;
  pd.exec_overhead = ExecOverheadModel{.setup_mean_s = setup,
                                       .setup_jitter_sigma = 0.0};
  pd.policy = SchedulerPolicy::kBackfill;
  return pd;
}

TEST(SimSession, SingleTaskLifecycle) {
  Session session{SessionConfig{}};
  session.submit_pilot(small_pilot());
  auto task = session.task_manager().submit(make_simple_task("t", 1, 0, 100.0));
  EXPECT_FALSE(is_terminal(task->state()));
  session.run();
  EXPECT_EQ(task->state(), TaskState::kDone);
  EXPECT_DOUBLE_EQ(session.now(), 100.0);
}

TEST(SimSession, StateTimestampsAreOrdered) {
  Session session{SessionConfig{}};
  session.submit_pilot(small_pilot(10.0, 5.0));
  auto task = session.task_manager().submit(make_simple_task("t", 1, 0, 100.0));
  session.run();
  const double submitted = task->state_time(TaskState::kSubmitted);
  const double scheduling = task->state_time(TaskState::kScheduling);
  const double executing = task->state_time(TaskState::kExecuting);
  const double done = task->state_time(TaskState::kDone);
  EXPECT_LE(submitted, scheduling);
  EXPECT_LE(scheduling, executing);
  EXPECT_LT(executing, done);
  // Bootstrap delays execution to t=10; setup adds 5; run takes 100.
  EXPECT_DOUBLE_EQ(executing, 10.0);
  EXPECT_DOUBLE_EQ(done, 115.0);
}

TEST(SimSession, WorkFunctionProducesResult) {
  Session session{SessionConfig{}};
  session.submit_pilot(small_pilot());
  auto task = session.task_manager().submit(make_simple_task(
      "t", 1, 0, 1.0, [](Task&) -> std::any { return std::string("payload"); }));
  session.run();
  EXPECT_EQ(task->result_as<std::string>(), "payload");
}

TEST(SimSession, ThrowingWorkFails) {
  Session session{SessionConfig{}};
  session.submit_pilot(small_pilot());
  auto task = session.task_manager().submit(make_simple_task(
      "t", 1, 0, 1.0,
      [](Task&) -> std::any { throw std::runtime_error("sim boom"); }));
  session.run();
  EXPECT_EQ(task->state(), TaskState::kFailed);
  EXPECT_EQ(task->error(), "sim boom");
  EXPECT_EQ(session.task_manager().counters().failed, 1u);
}

TEST(SimSession, ConcurrentTasksOverlapInTime) {
  Session session{SessionConfig{}};
  session.submit_pilot(small_pilot());
  // Two 2-core tasks fit the 4-core node simultaneously.
  auto a = session.task_manager().submit(make_simple_task("a", 2, 0, 100.0));
  auto b = session.task_manager().submit(make_simple_task("b", 2, 0, 100.0));
  session.run();
  EXPECT_DOUBLE_EQ(session.now(), 100.0);  // not 200: they ran concurrently
  EXPECT_EQ(a->state(), TaskState::kDone);
  EXPECT_EQ(b->state(), TaskState::kDone);
}

TEST(SimSession, ResourceContentionSerializes) {
  Session session{SessionConfig{}};
  session.submit_pilot(small_pilot());
  auto a = session.task_manager().submit(make_simple_task("a", 3, 0, 100.0));
  auto b = session.task_manager().submit(make_simple_task("b", 3, 0, 100.0));
  session.run();
  EXPECT_DOUBLE_EQ(session.now(), 200.0);  // 3+3 > 4 cores: serialized
}

TEST(SimSession, UtilizationRecorded) {
  Session session{SessionConfig{}};
  auto pilot = session.submit_pilot(small_pilot());
  session.task_manager().submit(make_simple_task("t", 4, 1, 50.0));
  session.run();
  const auto s = pilot->recorder().summarize(0.0, 50.0);
  EXPECT_DOUBLE_EQ(s.cpu_active, 1.0);
  EXPECT_DOUBLE_EQ(s.gpu_active, 1.0);
}

TEST(SimSession, PhasesChangeResourceFootprint) {
  Session session{SessionConfig{}};
  auto pilot = session.submit_pilot(small_pilot());
  TaskDescription td;
  td.name = "two-phase";
  td.resources = {.cores = 4, .gpus = 1, .mem_gb = 0.0};
  td.phases.push_back(TaskPhase{.name = "cpu",
                                .duration_s = 60.0,
                                .cores = 4,
                                .gpus = 0,
                                .cpu_intensity = 1.0,
                                .gpu_intensity = 0.0});
  td.phases.push_back(TaskPhase{.name = "gpu",
                                .duration_s = 40.0,
                                .cores = 1,
                                .gpus = 1,
                                .cpu_intensity = 1.0,
                                .gpu_intensity = 1.0});
  session.task_manager().submit(std::move(td));
  session.run();
  EXPECT_DOUBLE_EQ(session.now(), 100.0);
  // First 60 s: full CPU, no GPU. Last 40 s: 1/4 CPU, full GPU.
  const auto early = pilot->recorder().summarize(0.0, 60.0);
  EXPECT_DOUBLE_EQ(early.cpu_active, 1.0);
  EXPECT_DOUBLE_EQ(early.gpu_active, 0.0);
  const auto late = pilot->recorder().summarize(60.0, 100.0);
  EXPECT_DOUBLE_EQ(late.cpu_active, 0.25);
  EXPECT_DOUBLE_EQ(late.gpu_active, 1.0);
}

TEST(SimSession, ProfilerEventOrdering) {
  Session session{SessionConfig{}};
  session.submit_pilot(small_pilot(5.0, 2.0));
  auto task = session.task_manager().submit(make_simple_task("t", 1, 0, 10.0));
  session.run();
  const auto marks = session.observability().tracer().marks();
  const auto submit = time_of(marks, task->uid(), hpc::events::kSubmit);
  const auto sched = time_of(marks, task->uid(), hpc::events::kSchedule);
  const auto setup = time_of(marks, task->uid(), hpc::events::kExecSetupStart);
  const auto start = time_of(marks, task->uid(), hpc::events::kExecStart);
  const auto stop = time_of(marks, task->uid(), hpc::events::kExecStop);
  const auto done = time_of(marks, task->uid(), hpc::events::kDone);
  ASSERT_TRUE(submit && sched && setup && start && stop && done);
  EXPECT_LE(*submit, *sched);
  EXPECT_LE(*sched, *setup);
  EXPECT_LT(*setup, *start);
  EXPECT_LT(*start, *stop);
  EXPECT_LE(*stop, *done);
  EXPECT_DOUBLE_EQ(*start - *setup, 2.0);
  EXPECT_DOUBLE_EQ(*stop - *start, 10.0);
}

TEST(SimSession, PhaseDurationsAggregated) {
  Session session{SessionConfig{}};
  session.submit_pilot(small_pilot(5.0, 2.0));
  session.task_manager().submit(make_simple_task("a", 1, 0, 10.0));
  session.task_manager().submit(make_simple_task("b", 1, 0, 20.0));
  session.run();
  const auto d = hpc::phase_durations(
      hpc::tabulate(session.observability().tracer().marks()));
  EXPECT_DOUBLE_EQ(d.at("bootstrap"), 5.0);
  EXPECT_DOUBLE_EQ(d.at("exec_setup"), 4.0);
  EXPECT_DOUBLE_EQ(d.at("running"), 30.0);
}

TEST(SimSession, CancelQueuedTask) {
  Session session{SessionConfig{}};
  session.submit_pilot(small_pilot(100.0));  // long bootstrap keeps it queued
  auto task = session.task_manager().submit(make_simple_task("t", 1, 0, 10.0));
  EXPECT_TRUE(session.task_manager().cancel(task));
  session.run();
  EXPECT_EQ(task->state(), TaskState::kCancelled);
  EXPECT_EQ(session.task_manager().counters().cancelled, 1u);
}

TEST(SimSession, CancelExecutingTaskReleasesResources) {
  Session session{SessionConfig{}};
  auto pilot = session.submit_pilot(small_pilot());
  auto victim = session.task_manager().submit(make_simple_task("v", 4, 0, 1000.0));
  auto waiter = session.task_manager().submit(make_simple_task("w", 4, 0, 10.0));
  session.engine().schedule_at(
      50.0, [&] { session.task_manager().cancel(victim); });
  session.run();
  EXPECT_EQ(victim->state(), TaskState::kCancelled);
  EXPECT_EQ(waiter->state(), TaskState::kDone);
  EXPECT_DOUBLE_EQ(session.now(), 60.0);  // waiter starts right after cancel
  EXPECT_EQ(pilot->pool().free_cores(), 4u);
}

TEST(SimSession, CancelTerminalTaskFails) {
  Session session{SessionConfig{}};
  session.submit_pilot(small_pilot());
  auto task = session.task_manager().submit(make_simple_task("t", 1, 0, 1.0));
  session.run();
  EXPECT_FALSE(session.task_manager().cancel(task));
}

TEST(SimSession, OversizedTaskRejectedAtSubmit) {
  Session session{SessionConfig{}};
  session.submit_pilot(small_pilot());
  EXPECT_THROW(session.task_manager().submit(make_simple_task("big", 99, 0, 1.0)),
               std::runtime_error);
}

TEST(SimSession, SubmitWithNoPilotThrows) {
  Session session{SessionConfig{}};
  EXPECT_THROW(session.task_manager().submit(make_simple_task("t", 1, 0, 1.0)),
               std::runtime_error);
}

TEST(SimSession, CallbacksFireOncePerTerminalTask) {
  Session session{SessionConfig{}};
  session.submit_pilot(small_pilot());
  int calls = 0;
  session.task_manager().add_callback([&](const TaskPtr&) { ++calls; });
  session.task_manager().submit(make_simple_task("a", 1, 0, 1.0));
  session.task_manager().submit(make_simple_task("b", 1, 0, 2.0));
  session.run();
  EXPECT_EQ(calls, 2);
}

TEST(SimSession, CallbackCanSubmitFollowOnWork) {
  Session session{SessionConfig{}};
  session.submit_pilot(small_pilot());
  int completed = 0;
  session.task_manager().add_callback([&](const TaskPtr& t) {
    ++completed;
    if (t->description().name == "first")
      session.task_manager().submit(make_simple_task("second", 1, 0, 5.0));
  });
  session.task_manager().submit(make_simple_task("first", 1, 0, 5.0));
  session.run();
  EXPECT_EQ(completed, 2);
  EXPECT_EQ(session.task_manager().counters().done, 2u);
  EXPECT_DOUBLE_EQ(session.now(), 10.0);
}

TEST(SimSession, DurationJitterIsDeterministicPerSeed) {
  auto run_once = [](std::uint64_t seed) {
    SessionConfig cfg;
    cfg.seed = seed;
    Session session{cfg};
    session.submit_pilot(small_pilot());
    auto td = make_simple_task("t", 1, 0, 100.0);
    td.phases[0].jitter_sigma = 0.3;
    session.task_manager().submit(std::move(td));
    session.run();
    return session.now();
  };
  EXPECT_DOUBLE_EQ(run_once(1), run_once(1));
  EXPECT_NE(run_once(1), run_once(2));
}

TEST(SimSession, MultiplePilotsShareLoad) {
  Session session{SessionConfig{}};
  auto p1 = session.submit_pilot(small_pilot());
  auto p2 = session.submit_pilot(small_pilot());
  for (int i = 0; i < 8; ++i)
    session.task_manager().submit(
        make_simple_task("t" + std::to_string(i), 4, 0, 100.0));
  session.run();
  // 8 node-filling tasks over 2 nodes -> 4 rounds of 100 s.
  EXPECT_DOUBLE_EQ(session.now(), 400.0);
  EXPECT_GT(p1->recorder().intervals().size(), 0u);
  EXPECT_GT(p2->recorder().intervals().size(), 0u);
}

TEST(SimSession, TaskCountsAreConsistent) {
  Session session{SessionConfig{}};
  session.submit_pilot(small_pilot());
  for (int i = 0; i < 5; ++i)
    session.task_manager().submit(make_simple_task("t" + std::to_string(i), 1, 0, 1.0));
  EXPECT_EQ(session.task_manager().counters().submitted, 5u);
  EXPECT_EQ(session.task_manager().outstanding(), 5u);
  session.run();
  EXPECT_EQ(session.task_manager().outstanding(), 0u);
  EXPECT_EQ(session.task_manager().counters().done, 5u);
}

}  // namespace
}  // namespace impress::rp
