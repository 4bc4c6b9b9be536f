// Executor interface: the backend that runs an already-placed task.
//
// Two implementations exist:
//  * SimExecutor    — advances a discrete-event virtual clock; the default
//                     for campaign replay and figure reproduction.
//  * ThreadExecutor — real worker threads with (scaled) wall-clock delays;
//                     used to validate the middleware under genuine
//                     concurrency.
//
// Both honor the same contract: exec-setup overhead is applied, phases run
// in order, the work function executes once, usage intervals land in the
// pilot's UtilizationRecorder, lifecycle marks are recorded, and exactly
// one completion callback fires with the task in a terminal state.

#pragma once

#include <functional>

#include "common/rng.hpp"
#include "hpc/resource_pool.hpp"
#include "runtime/fault.hpp"
#include "runtime/task.hpp"

namespace impress::rp {

/// Called exactly once when a launched task reaches a terminal state.
/// The allocation is still attached; the pilot releases it.
using CompletionFn = std::function<void(const TaskPtr&)>;

/// Per-task launch overhead model: RP creates a sandbox and launch script
/// before the application starts ("Exec setup" in Fig 5). The cost varies
/// with filesystem load, hence mean + lognormal jitter.
struct ExecOverheadModel {
  double setup_mean_s = 0.0;
  double setup_jitter_sigma = 0.0;
};

class Executor {
 public:
  virtual ~Executor() = default;

  /// Run `task` on the allocation it already carries (Task::allocation()).
  /// Must not block the caller.
  virtual void launch(TaskPtr task, CompletionFn on_complete) = 0;

  /// Best-effort cancel of a task this executor has in flight. Returns
  /// true if the task was prevented from completing normally (the
  /// completion callback still fires, with state kCancelled).
  virtual bool cancel(const TaskPtr& task) = 0;

  /// Checkpoint support: position of the executor's duration-jitter rng
  /// stream. Only meaningful while the executor has no task in flight (a
  /// checkpoint is only cut at quiesce).
  [[nodiscard]] virtual common::Rng::State rng_state() const = 0;
  virtual void restore_rng_state(const common::Rng::State& s) = 0;

  /// Wire a fault injector; each launched attempt draws its fate from it.
  /// Pass nullptr (the default) for a fault-free executor. The injector
  /// must outlive the executor.
  void set_fault_injector(const FaultInjector* faults) noexcept {
    faults_ = faults;
  }

 protected:
  /// Fate of one attempt: neutral when no injector is wired.
  [[nodiscard]] FaultInjector::AttemptFault draw_fault(
      const TaskPtr& task) const noexcept {
    if (faults_ == nullptr) return {};
    return faults_->draw_attempt(task->uid(), task->attempt());
  }

 private:
  const FaultInjector* faults_ = nullptr;
};

}  // namespace impress::rp
