// TaskManager: the client-facing entry point of the runtime.
//
// Mirrors RP's TaskManager: accepts task descriptions, assigns uids,
// routes tasks to pilots (least-loaded among the pilots that can ever fit
// the request), and fires user callbacks when tasks reach a terminal
// state. The IMPRESS coordinator registers one callback that feeds its
// completed-task channel.
//
// Fault tolerance (docs/fault_tolerance.md): each task carries a
// RetryPolicy. A failed attempt — work exception, injected fault, expired
// per-attempt deadline, or pilot failure — is resubmitted after an
// exponential-backoff delay, preferring a *different* pilot when one can
// fit the task. Only when the policy is exhausted (or no live pilot
// remains) does the task become terminally kFailed and reach callbacks.

#pragma once

#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/lockdep.hpp"
#include "common/rng.hpp"
#include "common/uid.hpp"
#include "obs/obs.hpp"
#include "runtime/pilot.hpp"
#include "runtime/task.hpp"

namespace impress::rp {

class TaskManager {
 public:
  /// Fired once per task when it becomes kDone / kFailed / kCancelled.
  using Callback = std::function<void(const TaskPtr&)>;

  /// Schedules a deferred action `delay_s` simulated seconds from now;
  /// the session wires this to an event on its clock (Session::call_after).
  /// Retry backoff and per-attempt deadlines are driven through it.
  using DeferFn = std::function<void(double, std::function<void()>)>;

  /// `obs` (which must outlive the manager) receives the task lifecycle
  /// marks, the task spans (submit -> terminal, parented under
  /// TaskDescription::trace_parent) and the task-lifecycle counters.
  /// `defer` drives retry backoff and per-attempt deadlines; `rng` draws
  /// the backoff jitter.
  TaskManager(common::UidGenerator& uids, obs::Observability& obs,
              std::function<double()> now_fn, DeferFn defer,
              common::Rng rng);

  /// Register a pilot as a routing target. The session wires the pilot's
  /// terminal notifications back to this manager.
  void add_pilot(PilotPtr pilot);

  /// Submit one task; returns the live Task handle.
  /// Throws std::runtime_error if no registered pilot can ever fit it.
  TaskPtr submit(TaskDescription description);
  std::vector<TaskPtr> submit(std::vector<TaskDescription> descriptions);

  /// Register a terminal-state callback; returns its registration id.
  std::size_t add_callback(Callback cb);

  /// Deregister a callback and block until no callback pass that may still
  /// hold it is executing. After this returns, the callback will never run
  /// again — safe to destroy whatever it captured. Must not be called from
  /// inside a callback (self-deadlock).
  void remove_callback(std::size_t id);

  /// Cancel a submitted task (queued, executing, or waiting out a retry
  /// backoff). Returns false if the task is already terminal or unknown.
  bool cancel(const TaskPtr& task);

  /// Tasks submitted but not yet terminal.
  [[nodiscard]] std::size_t outstanding() const;

  /// Lifetime counters over everything ever submitted, as one plain-data
  /// bundle (checkpointed so a resumed campaign reports the same workload
  /// totals).
  struct Counters {
    std::uint64_t submitted = 0;
    std::uint64_t done = 0;
    std::uint64_t failed = 0;
    std::uint64_t cancelled = 0;
    /// Failed attempts that were resubmitted under a RetryPolicy.
    std::uint64_t retried = 0;
    /// Attempts evicted because their per-attempt deadline expired.
    std::uint64_t timed_out = 0;
    /// Tasks handed back by failing pilots and re-routed.
    std::uint64_t requeued = 0;
    bool operator==(const Counters&) const = default;
  };
  [[nodiscard]] Counters counters() const {
    std::lock_guard lock(mutex_);
    return counters_;
  }
  /// Checkpoint restore; only valid while no task is outstanding.
  void restore_counters(const Counters& c) {
    std::lock_guard lock(mutex_);
    counters_ = c;
  }

  /// Block the calling thread until no task is outstanding *and* no
  /// terminal callback is still running. Only meaningful in threaded
  /// mode — in simulated mode use Session::run(), which drives the event
  /// loop instead of blocking.
  void wait_all();

  /// The handler the session installs on each pilot.
  [[nodiscard]] TerminalFn terminal_handler();

  /// The requeue handler the session installs on each pilot: tasks a
  /// failing pilot drains from its queue are re-routed to a live pilot.
  [[nodiscard]] RequeueFn requeue_handler();

 private:
  void on_terminal(const TaskPtr& task);
  /// Counters + callbacks + idle notification for a truly terminal task.
  void finalize(const TaskPtr& task);
  /// Hand a task to `pilot`, re-routing if the pilot died in between.
  void dispatch(const TaskPtr& task, PilotPtr pilot);
  /// Second and later attempts enter here after their backoff delay.
  void resubmit(const TaskPtr& task);
  /// Tasks drained from a failed pilot's queue re-enter here.
  void requeue(const TaskPtr& task);
  /// Arm the per-attempt deadline for the task's current attempt.
  void arm_deadline(const TaskPtr& task);
  /// Mark the task terminally failed (no pilot) and finalize it.
  void fail_unroutable(const TaskPtr& task, const std::string& why);
  PilotPtr route(const TaskDescription& td, const Pilot* exclude = nullptr);

  /// Where an outstanding task is: routed to `pilot`, or waiting out a
  /// retry backoff after an attempt failed on `pilot` (excluded on
  /// resubmission when an alternative exists).
  struct Route {
    PilotPtr pilot;
    bool backoff = false;
  };

  common::UidGenerator& uids_;
  obs::Observability& obs_;
  std::function<double()> now_;
  const DeferFn defer_;
  common::Rng rng_;  ///< backoff jitter; forked per (task, attempt)

  // Root of the canonical acquisition order (see lockdep.hpp): held while
  // peeking Pilot queue lengths in route() and drawing uids, never taken
  // while a pilot or executor lock is held.
  mutable common::TrackedMutex mutex_{"TaskManager::mutex_"};
  common::CondVar idle_cv_;
  std::vector<PilotPtr> pilots_;
  std::vector<Callback> callbacks_;
  /// One entry per outstanding task, from submit to finalize.
  std::unordered_map<const Task*, Route> routes_;
  std::size_t outstanding_ = 0;
  /// Terminal callbacks currently executing; wait_all() must not return
  /// while one is in flight, because it may be about to submit follow-on
  /// work (see on_terminal).
  std::size_t callbacks_in_flight_ = 0;
  Counters counters_;
};

}  // namespace impress::rp
