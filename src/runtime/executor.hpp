// Executor: runs an already-placed task through one attempt, as
// RADICAL-Pilot's agent Executor component does.
//
// The attempt lifecycle is written once: the exec-setup draw and spans,
// exec_start, the fault and phase draws, phase spans and usage intervals
// at completion, the work call under the attempt's ambient span, and one
// tail per outcome (exec_stop, the attempt's `outcome`, its close, the
// pilot's completion). The executor waits one way: exec setup and the
// phases are each a Session::call_at event, which a cancel drops. It
// never learns the execution mode — the session fires the events from
// its simulated run loop (a 38-hour IM-RP run completes in milliseconds,
// deterministically) or from its wall-clock pacer on pool workers
// (genuine concurrency for validating the middleware).
//
// Exactly one Pilot::on_complete fires per launched attempt, with the
// task terminal. A cancel takes effect at once, and no thread is left
// waiting out the dropped wait.

#pragma once

#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/lockdep.hpp"
#include "common/rng.hpp"
#include "hpc/utilization.hpp"
#include "obs/obs.hpp"
#include "runtime/fault.hpp"
#include "runtime/task.hpp"
#include "sim/event_pool.hpp"

namespace impress::rp {

class Pilot;
class Session;

/// Per-task launch overhead model: RP creates a sandbox and launch script
/// before the application starts ("Exec setup" in Fig 5). The cost varies
/// with filesystem load, hence mean + lognormal jitter.
struct ExecOverheadModel {
  double setup_mean_s = 0.0;
  double setup_jitter_sigma = 0.0;
};

class Executor {
 public:
  /// The executor runs `pilot`'s placements, reads its clock and exec
  /// overhead, and reports each finished attempt to it. `obs` receives
  /// the marks, attempt/phase spans and exec histograms; instrumentation
  /// never draws from `rng`, so enabling it cannot perturb results.
  /// `faults` (may be null) draws each attempt's fate. Every wait is an
  /// event on `session`'s clock. All must outlive the executor.
  Executor(Pilot& pilot, obs::Observability& obs, common::Rng rng,
           const FaultInjector* faults, Session& session);

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Run `task` on the allocation it already carries. Never blocks.
  void launch(TaskPtr task);

  /// Cancel an attempt this executor has in flight: it ends at once as
  /// kCancelled, and the pilot releases its allocation. Returns false if
  /// the attempt already ended (or was never launched here).
  bool cancel(const TaskPtr& task);

  /// The attempts in flight, in launch order.
  [[nodiscard]] std::vector<TaskPtr> in_flight() const;

  /// Checkpoint support: position of the duration-jitter rng stream. Only
  /// meaningful at quiesce (a checkpoint is never cut with a task in
  /// flight).
  [[nodiscard]] common::Rng::State rng_state() const;
  void restore_rng_state(const common::Rng::State& s);

 private:
  struct Attempt {
    TaskPtr task;
    std::uint64_t seq = 0;    ///< launch ordinal; a relaunch gets a new one
    sim::EventId event = 0;   ///< the pending wait
  };

  /// Exec setup is over: mark exec_start, draw the attempt's fault and
  /// phase durations, and wait for its end.
  void start_phases(const Task* key, std::uint64_t seq);
  /// The attempt ran to its end: phase spans, usage, the work call.
  void finish(const Task* key, std::uint64_t seq,
              std::vector<hpc::UsageInterval> intervals);
  /// An injected crash ends the attempt partway; it records no usage.
  void fail_injected(const Task* key, std::uint64_t seq);
  /// Remove the attempt `seq` of `key` from the in-flight table; null if
  /// it already ended or was cancelled. Caller holds mutex_.
  [[nodiscard]] TaskPtr claim(const Task* key, std::uint64_t seq);
  /// The tail every attempt ends with, whatever its outcome.
  void stop(const TaskPtr& task, double now, std::string_view info,
            std::string_view outcome);

  Pilot& pilot_;
  obs::Observability& obs_;
  const FaultInjector* faults_;
  Session& session_;

  /// Guards rng_, in_flight_ and next_seq_. Taken under Pilot::mutex_
  /// (launch); held while arming or cancelling a wait on the session's
  /// clock, never while calling the pilot or a work function.
  mutable common::TrackedMutex mutex_{"Executor::mutex_"};
  common::Rng rng_;
  std::unordered_map<const Task*, Attempt> in_flight_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace impress::rp
