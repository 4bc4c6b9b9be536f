// Pilot: a placeholder job that owns a slice of machine resources and
// runs tasks inside it without further batch-system interaction — the
// central abstraction of RADICAL-Pilot, reimplemented here.
//
// Lifecycle: LAUNCHING --(bootstrap overhead)--> ACTIVE --> DONE, with a
// FAILED branch from any live state: a pilot that dies (node outage,
// injected fault) drains its queued tasks back to the TaskManager for
// re-routing and evicts its executing tasks so their attempts can be
// retried elsewhere, instead of stranding work.
// While ACTIVE, the pilot's agent scheduler places queued tasks onto the
// pilot's ResourcePool and hands them to the executor; completions release
// resources and immediately re-schedule, which is what produces the
// "offload new pipelines to idle resources" behaviour of IM-RP.

#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/lockdep.hpp"
#include "hpc/node.hpp"
#include "hpc/resource_pool.hpp"
#include "hpc/utilization.hpp"
#include "obs/obs.hpp"
#include "runtime/executor.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/task.hpp"

namespace impress::rp {

enum class PilotState { kLaunching, kActive, kDone, kFailed };

[[nodiscard]] std::string_view to_string(PilotState s) noexcept;

/// Invoked for each task a failing pilot hands back for re-routing.
using RequeueFn = std::function<void(const TaskPtr&)>;

struct PilotDescription {
  std::vector<hpc::NodeSpec> nodes{hpc::amarel_node()};
  double bootstrap_s = 0.0;  ///< agent start-up ("Bootstrap" in Fig 5)
  ExecOverheadModel exec_overhead;  ///< per-task sandbox/launch-script cost
  SchedulerPolicy policy = SchedulerPolicy::kBackfill;
};

class Pilot {
 public:
  /// `now_fn` reads the session clock; `obs` receives the pilot's
  /// lifecycle marks and scheduler-decision counters and must outlive the
  /// pilot. A `restored` pilot is being rebuilt from a checkpoint: its
  /// bootstrap_start mark is already among the preloaded marks, so the
  /// constructor must not record a second one (the caller then sets the
  /// checkpointed state via restore_state()).
  Pilot(std::string uid, PilotDescription description, obs::Observability& obs,
        std::function<double()> now_fn, bool restored = false);

  /// Checkpoint restore: force the lifecycle state without recording
  /// marks or draining/evicting anything.
  void restore_state(PilotState s) noexcept { state_.store(s); }

  Pilot(const Pilot&) = delete;
  Pilot& operator=(const Pilot&) = delete;

  [[nodiscard]] const std::string& uid() const noexcept { return uid_; }
  [[nodiscard]] const PilotDescription& description() const noexcept {
    return description_;
  }
  [[nodiscard]] PilotState state() const noexcept { return state_.load(); }
  [[nodiscard]] hpc::ResourcePool& pool() noexcept { return pool_; }
  [[nodiscard]] const hpc::ResourcePool& pool() const noexcept { return pool_; }
  [[nodiscard]] hpc::UtilizationRecorder& recorder() noexcept { return recorder_; }
  [[nodiscard]] const hpc::UtilizationRecorder& recorder() const noexcept {
    return recorder_;
  }

  /// Wire the executor (owned by the session, depends on this pilot's
  /// recorder), the terminal-task callback, and optionally the requeue
  /// callback used when this pilot fails. Must be called before any
  /// enqueue().
  void attach(Executor& executor, CompletionFn on_task_terminal,
              RequeueFn on_task_requeue = {});

  /// Mark bootstrap finished; queued tasks start flowing.
  void activate();

  /// Accept a task into the agent scheduler queue. Throws std::logic_error
  /// if the pilot is no longer accepting work.
  void enqueue(TaskPtr task);

  /// Like enqueue(), but returns false instead of throwing when the pilot
  /// is DONE or FAILED — the TaskManager uses this to re-route around a
  /// pilot that died between routing and enqueueing.
  [[nodiscard]] bool try_enqueue(TaskPtr task);

  /// Remove a still-queued task; returns false if it already left the
  /// queue (executing or terminal).
  bool dequeue(const TaskPtr& task);

  /// Cancel a task owned by this pilot: removed from the queue if still
  /// waiting, otherwise forwarded to the executor. Returns false if the
  /// task is not under this pilot's control anymore.
  bool cancel(const TaskPtr& task);

  /// Number of tasks waiting in the agent queue.
  [[nodiscard]] std::size_t queue_length() const;

  /// Tasks currently holding an allocation.
  [[nodiscard]] std::size_t running() const noexcept {
    return running_.load();
  }

  /// Mark the pilot done (no new placements; running tasks finish).
  void finish();

  /// Simulate a pilot/node outage: the pilot enters FAILED, queued tasks
  /// are handed to the requeue callback (or failed terminally if none is
  /// wired), and executing tasks are evicted so the TaskManager can retry
  /// them on another pilot.
  void fail();

  /// Spot capacity returned: a FAILED pilot re-enters ACTIVE with its
  /// (empty) queue and full resource pool, and the TaskManager may route
  /// to it again. No-op unless the pilot is FAILED — a DONE pilot stays
  /// done. Used by the session's FaultConfig::spot_reclaims schedule.
  void reactivate();

 private:
  void place(TaskPtr task, hpc::Allocation alloc);
  void on_complete(const TaskPtr& task);
  /// try_schedule + scheduler-decision metrics (ticks/placements).
  void run_scheduler();

  std::string uid_;
  PilotDescription description_;
  obs::Observability& obs_;
  std::function<double()> now_;
  hpc::ResourcePool pool_;
  hpc::UtilizationRecorder recorder_;
  Scheduler scheduler_;
  Executor* executor_ = nullptr;
  CompletionFn on_task_terminal_;
  RequeueFn on_task_requeue_;
  // Atomic: read lock-free by TaskManager::route while activate()/finish()
  // write it under mutex_ from timer/worker threads.
  std::atomic<PilotState> state_{PilotState::kLaunching};
  // Atomic for the same reason as state_: routing reads it lock-free.
  std::atomic<std::size_t> running_{0};
  /// Guards executing_ and scheduler_. Recursive: enqueue -> run_scheduler
  /// -> place re-enters under the same lock. Second tier of the canonical
  /// order: taken under TaskManager::mutex_ (route), holds Executor /
  /// ThreadPool / ResourcePool locks below it, and is always dropped
  /// before the terminal/requeue callbacks re-enter the TaskManager.
  mutable common::TrackedRecursiveMutex mutex_{"Pilot::mutex_"};
  // Tasks currently holding an allocation, by uid: fail() must evict them
  // without the executor exposing its in-flight bookkeeping.
  std::unordered_map<std::string, TaskPtr> executing_;
};

using PilotPtr = std::shared_ptr<Pilot>;

}  // namespace impress::rp
