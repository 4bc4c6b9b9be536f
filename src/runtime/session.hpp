// Session: top-level owner of one runtime instance (RP's Session analog).
//
// A session fixes the execution mode (simulated virtual clock vs real
// worker threads), the master seed, and owns the engine, the observability
// bundle (lifecycle marks, spans, metrics), uid generator, pilots,
// executors and the TaskManager. Everything an IMPRESS campaign needs
// hangs off a Session, and two Sessions in one process are fully
// independent — the Table-I bench runs the CONT-V and IM-RP campaigns
// back to back in separate sessions.

#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/lockdep.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/uid.hpp"
#include "obs/obs.hpp"
#include "runtime/fault.hpp"
#include "runtime/pilot.hpp"
#include "runtime/task_manager.hpp"
#include "sim/engine.hpp"

namespace impress::rp {

enum class ExecutionMode {
  kSimulated,  ///< discrete-event virtual clock; deterministic, instant
  kThreaded,   ///< engine paced by the wall clock, scaled by time_scale;
               ///< callbacks run on real worker threads
};

struct SessionConfig {
  ExecutionMode mode = ExecutionMode::kSimulated;
  std::uint64_t seed = 42;
  /// Threaded mode: wall seconds per simulated second (1e-4 => a one-hour
  /// task takes 0.36 s).
  double time_scale = 1e-4;
  /// Threaded mode: how many due callbacks (attempt steps, timers, work
  /// functions) run at once. No worker waits out a delay — waits are
  /// engine events — so this need not match the task concurrency.
  std::size_t worker_threads = 16;
  /// Seeded fault plan: task failures / slowdowns drawn per (task, attempt)
  /// plus scheduled pilot outages. Empty by default (no faults).
  FaultConfig faults;
  /// Observability (src/obs): span tracing and the metrics registry. Both
  /// default off — a disabled axis costs one branch per call site and, by
  /// the determinism contract, enabling either never perturbs results.
  bool enable_tracing = false;
  bool enable_metrics = false;
};

/// One pilot's checkpointed runtime state, applied by the restoring
/// submit_pilot overload (see docs/persistence.md).
struct PilotRestore {
  std::string uid;  ///< checkpointed uid; the generator counter is restored
                    ///< separately, so next() is NOT consulted
  bool failed = false;  ///< pilot was FAILED at the cut
  common::Rng::State executor_rng;  ///< duration-jitter stream position
  std::vector<hpc::UsageInterval> intervals;  ///< recorder contents
};

/// Runtime-layer checkpoint payload, applied at construction: clock warp,
/// mark/trace/metrics preloads, uid counters and TaskManager totals.
/// Checkpoints are only cut at quiesce (nothing in flight), so no task or
/// scheduler state appears here.
struct SessionRestore {
  double now = 0.0;  ///< session clock at the cut (simulated seconds)
  std::vector<obs::Mark> profiler_events;  ///< lifecycle marks
  std::vector<obs::SpanRecord> trace;
  std::uint64_t trace_next_seq = 1;
  obs::MetricsSnapshot metrics;
  std::map<std::string, std::uint64_t> uid_counters;
  TaskManager::Counters task_counters;
};

class Session {
 public:
  explicit Session(SessionConfig config = {});
  /// Construct a session resuming from a checkpoint cut at restore.now.
  Session(SessionConfig config, const SessionRestore& restore);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Create a pilot, wire its executor, and schedule its bootstrap
  /// completion. The pilot becomes ACTIVE after description.bootstrap_s.
  PilotPtr submit_pilot(const PilotDescription& description);

  /// Checkpoint-restoring variant: rebuilds the pilot under its
  /// checkpointed uid, already past bootstrap (no bootstrap events or
  /// activation timer), with its recorder intervals and executor rng
  /// stream restored. Outages that already fired before the cut are not
  /// re-armed.
  PilotPtr submit_pilot(const PilotDescription& description,
                        const PilotRestore& restore);

  [[nodiscard]] TaskManager& task_manager() noexcept { return *tmgr_; }
  /// The event queue, for simulated mode only: in threaded mode the pacer
  /// owns it, and call_at / cancel are the way in.
  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] obs::Observability& observability() noexcept { return obs_; }
  [[nodiscard]] const obs::Observability& observability() const noexcept {
    return obs_;
  }
  [[nodiscard]] common::UidGenerator& uids() noexcept { return uids_; }
  [[nodiscard]] const SessionConfig& config() const noexcept { return config_; }
  [[nodiscard]] ExecutionMode mode() const noexcept { return config_.mode; }
  [[nodiscard]] const std::vector<PilotPtr>& pilots() const noexcept {
    return pilots_;
  }

  /// Session clock in simulated seconds (virtual clock or scaled wall).
  [[nodiscard]] double now() const;

  /// Per-pilot checkpoint payloads (uid, failed flag, executor rng stream
  /// position, recorder intervals), in submission order. Only meaningful
  /// at quiesce — no task outstanding.
  [[nodiscard]] std::vector<PilotRestore> checkpoint_pilots() const;

  /// Independent child generator for a named component.
  [[nodiscard]] common::Rng fork_rng(std::string_view tag) const;

  /// Run until the workload completes: simulated mode drains the event
  /// loop; threaded mode blocks until no task is outstanding.
  void run();

  /// Run `fn` when the session clock reaches `t` (simulated seconds;
  /// earlier times fire at once). Both modes queue it on the one engine:
  /// simulated mode fires it from run(), threaded mode from the pacer,
  /// which hands each due callback to a pool worker. Callbacks not yet due
  /// when the session is destroyed never run.
  sim::EventId call_at(double t, std::function<void()> fn);
  /// Drop an event call_at queued; false if it already fired (threaded:
  /// was handed to the pool) or was cancelled.
  bool cancel(sim::EventId id);
  /// call_at(now() + delay_s); negative delays count as zero.
  void call_after(double delay_s, std::function<void()> fn);

  /// Mark all pilots done. Called by the destructor.
  void close();

 private:
  /// Both public constructors: the clock starts at `start_s`, and in
  /// threaded mode the pacer starts last, once the clock is in place.
  Session(SessionConfig config, double start_s);
  /// The executor for `pilot`; shared by both submit_pilot overloads.
  std::unique_ptr<Executor> make_executor(Pilot& pilot);
  /// Registration shared by both submit_pilot overloads (executor/pilot
  /// bookkeeping + TaskManager routing).
  void register_pilot(PilotPtr pilot, std::unique_ptr<Executor> exec);
  /// Arm scheduled outages for the pilot at `index`, skipping any at or
  /// before `horizon_s` (already fired before a checkpoint cut).
  void arm_outages(const PilotPtr& pilot, std::size_t index,
                   double horizon_s);
  /// Threaded mode's pacer thread: wait until the scaled wall clock
  /// reaches the next event, then fire it, which hands its callback to
  /// the pool.
  void pace();

  SessionConfig config_;
  /// Threaded mode only (simulated mode runs the engine on one thread):
  /// guards engine_ and stopping_. Taken under Executor::mutex_ (an
  /// attempt arms or cancels its wait); the pacer holds it while it
  /// submits due callbacks to the pool.
  common::TrackedMutex engine_mutex_{"Session::engine_mutex_"};
  common::CondVar pacer_cv_;  ///< the head event changed, or stopping_
  bool stopping_ = false;
  sim::Engine engine_;
  // Declared before the task manager / executors / pilots that hold a
  // reference to it (and therefore destroyed after them).
  obs::Observability obs_;
  common::UidGenerator uids_;
  common::Rng rng_;
  std::chrono::steady_clock::time_point wall_start_;
  /// Simulated seconds already elapsed before this process started
  /// (checkpoint restore); added to the wall clock in threaded mode. The
  /// simulated engine warps its own clock instead.
  const double clock_offset_;
  // Declared before the executors that hold a pointer to it.
  std::optional<FaultInjector> faults_;
  std::unique_ptr<TaskManager> tmgr_;
  std::vector<PilotPtr> pilots_;
  std::vector<std::unique_ptr<Executor>> executors_;
  // Declared after everything worker threads touch: destroying the pool
  // joins the workers, so the TaskManager, pilots and executors are
  // guaranteed to outlive every callback already handed to it.
  std::optional<common::ThreadPool> pool_;
  std::thread pacer_;  ///< threaded mode; joined by the destructor
};

}  // namespace impress::rp
