// Executor contract under both clocks: whether the session fires the
// executor's waits from its simulated run loop or from its wall-clock
// pacer on pool workers (threaded), an attempt records the same exec_*
// marks and infos, ends with the same attempt outcome and terminal state,
// feeds impress_task_run_seconds only when it ran to its end, and hands
// its allocation back.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "hpc/analytics.hpp"
#include "runtime/session.hpp"

namespace impress::rp {
namespace {

using Marks = std::vector<std::pair<std::string, std::string>>;

// Exec setup takes kStep, then two phases of kStep each: setup [0, 100],
// phase p1 [100, 200], phase p2 [200, 300]. At the threaded scale below a
// step is 200 ms of wall time.
constexpr double kStep = 100.0;

Marks lifecycle(bool started, std::string_view stop_info) {
  Marks m{{std::string(hpc::events::kExecSetupStart), ""}};
  if (started) m.emplace_back(hpc::events::kExecStart, "");
  m.emplace_back(hpc::events::kExecStop, stop_info);
  return m;
}

class ExecutorContract : public ::testing::TestWithParam<ExecutionMode> {
 protected:
  /// A session with tracing and metrics on and one four-core pilot.
  Session& start(FaultConfig faults = {}) {
    SessionConfig cfg;
    cfg.mode = GetParam();
    cfg.seed = 5;
    cfg.time_scale = 2e-3;
    cfg.worker_threads = 8;
    cfg.faults = std::move(faults);
    cfg.enable_tracing = true;
    cfg.enable_metrics = true;
    session_.emplace(cfg);
    PilotDescription pd;
    pd.nodes = {
        hpc::NodeSpec{.name = "n", .cores = 4, .gpus = 0, .mem_gb = 16.0}};
    pd.exec_overhead.setup_mean_s = kStep;
    pilot_ = session_->submit_pilot(pd);
    return *session_;
  }

  TaskPtr submit(const std::string& name) {
    TaskDescription td;
    td.name = name;
    td.resources = {.cores = 1};
    for (const char* phase : {"p1", "p2"})
      td.phases.push_back(
          TaskPhase{.name = phase, .duration_s = kStep, .cores = 1});
    return session_->task_manager().submit(std::move(td));
  }

  /// Run `act` inside a window of the attempts' timeline: at simulated
  /// time `t` in simulated mode; in threaded mode from a watcher thread as
  /// soon as every task in `tasks` has recorded `mark`, since a timer
  /// callback on a loaded machine can run after the window has closed.
  void act_at(double t, std::vector<TaskPtr> tasks, std::string_view mark,
              std::function<void()> act) {
    if (GetParam() == ExecutionMode::kSimulated) {
      session_->call_after(t, std::move(act));
      return;
    }
    watcher_ = std::thread([this, tasks = std::move(tasks), mark,
                            act = std::move(act)] {
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (!all_marked(tasks, mark) &&
             std::chrono::steady_clock::now() < give_up)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      act();
    });
  }

  /// Cancel `task` (see act_at); the result lands in `out`.
  void cancel_at(double t, const TaskPtr& task, std::string_view mark,
                 std::atomic<bool>& out) {
    act_at(t, {task}, mark, [this, task, &out] {
      out = session_->task_manager().cancel(task);
    });
  }

  void run() {
    session_->run();
    if (watcher_.joinable()) watcher_.join();
  }

  [[nodiscard]] bool all_marked(const std::vector<TaskPtr>& tasks,
                                std::string_view event) const {
    const auto marks = session_->observability().tracer().marks();
    return std::all_of(tasks.begin(), tasks.end(), [&](const TaskPtr& task) {
      return std::any_of(marks.begin(), marks.end(), [&](const obs::Mark& m) {
        return m.entity == task->uid() && m.event == event;
      });
    });
  }

  /// The task's exec_* marks with their infos, in record order.
  [[nodiscard]] Marks exec_marks(const TaskPtr& task) const {
    Marks out;
    for (const auto& m : session_->observability().tracer().marks())
      if (m.entity == task->uid() && m.event.starts_with("exec_"))
        out.emplace_back(m.event, m.info);
    return out;
  }

  /// The `outcome` attribute of the task's last attempt span.
  [[nodiscard]] std::string outcome(const TaskPtr& task) const {
    for (const auto& span : session_->observability().tracer().spans()) {
      if (span.id != task->attempt_span()) continue;
      for (const auto& [key, value] : span.attrs)
        if (key == "outcome") return value;
    }
    return "<none>";
  }

  [[nodiscard]] std::uint64_t runs_counted() const {
    return session_->observability().metrics().task_run_seconds->count();
  }

  void expect_pool_free() const {
    EXPECT_EQ(pilot_->running(), 0u);
    EXPECT_EQ(pilot_->pool().free_cores(), pilot_->pool().total_cores());
  }

  std::optional<Session> session_;
  PilotPtr pilot_;
  std::thread watcher_;
};

TEST_P(ExecutorContract, Lifecycle) {
  {
    SCOPED_TRACE("completes");
    start();
    const TaskPtr task = submit("done");
    run();
    EXPECT_EQ(exec_marks(task), lifecycle(true, ""));
    EXPECT_EQ(outcome(task), "DONE");
    EXPECT_EQ(task->state(), TaskState::kDone);
    EXPECT_EQ(runs_counted(), 1u);
    expect_pool_free();
  }
  {
    SCOPED_TRACE("injected-fault crash");
    start(FaultConfig{.task_failure_rate = 1.0});
    const TaskPtr task = submit("crash");
    run();
    EXPECT_EQ(exec_marks(task), lifecycle(true, "injected-fault"));
    EXPECT_EQ(outcome(task), "injected-fault");
    EXPECT_EQ(task->state(), TaskState::kFailed);
    EXPECT_EQ(runs_counted(), 0u);
    expect_pool_free();
  }
  {
    SCOPED_TRACE("cancel during exec setup");
    start();
    const TaskPtr task = submit("setup");
    std::atomic<bool> cancelled{false};
    cancel_at(kStep / 2, task, hpc::events::kExecSetupStart, cancelled);
    run();
    EXPECT_TRUE(cancelled);
    EXPECT_EQ(exec_marks(task), lifecycle(false, "cancelled"));
    EXPECT_EQ(outcome(task), "cancelled");
    EXPECT_EQ(task->state(), TaskState::kCancelled);
    EXPECT_EQ(runs_counted(), 0u);
    expect_pool_free();
  }
  {
    SCOPED_TRACE("cancel between phases");
    start();
    const TaskPtr task = submit("phases");
    std::atomic<bool> cancelled{false};
    cancel_at(2.5 * kStep, task, hpc::events::kExecStart, cancelled);
    run();
    EXPECT_TRUE(cancelled);
    EXPECT_EQ(exec_marks(task), lifecycle(true, "cancelled"));
    EXPECT_EQ(outcome(task), "cancelled");
    EXPECT_EQ(task->state(), TaskState::kCancelled);
    EXPECT_EQ(runs_counted(), 0u);
    expect_pool_free();
  }
  {
    SCOPED_TRACE("pilot outage while four tasks execute");
    Session& s = start();
    std::vector<TaskPtr> tasks;
    for (int i = 0; i < 4; ++i)
      tasks.push_back(submit("t" + std::to_string(i)));
    act_at(1.5 * kStep, tasks, hpc::events::kExecStart,
           [this] { pilot_->fail(); });
    run();
    for (const auto& task : tasks) {
      SCOPED_TRACE(task->uid());
      EXPECT_EQ(exec_marks(task), lifecycle(true, "cancelled"));
      EXPECT_EQ(outcome(task), "cancelled");
      EXPECT_EQ(task->state(), TaskState::kFailed);
    }
    EXPECT_EQ(runs_counted(), 0u);
    expect_pool_free();
    if (GetParam() == ExecutionMode::kSimulated) {
      // Evicted in launch order, whatever order the uids hash in.
      std::vector<std::string> launched;
      std::vector<std::string> evicted;
      for (const auto& m : s.observability().tracer().marks()) {
        if (m.event == hpc::events::kExecSetupStart)
          launched.push_back(m.entity);
        if (m.event == hpc::events::kExecStop) evicted.push_back(m.entity);
      }
      EXPECT_EQ(launched.size(), tasks.size());
      EXPECT_EQ(evicted, launched);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BothClocks, ExecutorContract,
    ::testing::Values(ExecutionMode::kSimulated, ExecutionMode::kThreaded),
    [](const ::testing::TestParamInfo<ExecutionMode>& mode) {
      return mode.param == ExecutionMode::kSimulated ? "Simulated"
                                                     : "Threaded";
    });

}  // namespace
}  // namespace impress::rp
