// Real-concurrency executor: runs tasks on a worker pool with wall-clock
// delays scaled from simulated seconds. Validates that the middleware
// (scheduler, channels, coordinator) behaves correctly under genuine
// parallelism, races and all; campaign *figures* use SimExecutor instead.

#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/lockdep.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "hpc/utilization.hpp"
#include "obs/obs.hpp"
#include "runtime/executor.hpp"

namespace impress::rp {

class ThreadExecutor : public Executor {
 public:
  /// `time_scale` converts simulated seconds to wall seconds for sleeps
  /// (e.g. 1e-4 runs a 1-hour task in 0.36 s). `now_fn` reads the session
  /// clock in simulated seconds. `obs` (which must outlive the executor)
  /// receives marks, spans and exec histograms, as for SimExecutor.
  ThreadExecutor(common::ThreadPool& pool, obs::Observability& obs,
                 hpc::UtilizationRecorder& recorder,
                 ExecOverheadModel overhead, common::Rng rng,
                 double time_scale, std::function<double()> now_fn)
      : pool_(pool),
        obs_(obs),
        recorder_(recorder),
        overhead_(overhead),
        rng_(std::move(rng)),
        time_scale_(time_scale),
        now_(std::move(now_fn)) {}

  void launch(TaskPtr task, CompletionFn on_complete) override;

  /// Cooperative cancel: takes effect at the next phase boundary.
  bool cancel(const TaskPtr& task) override;

  /// Checkpoint accessors; only called at quiesce (no launches racing).
  [[nodiscard]] common::Rng::State rng_state() const override {
    std::lock_guard lock(mutex_);
    return rng_.save_state();
  }
  void restore_rng_state(const common::Rng::State& s) override {
    std::lock_guard lock(mutex_);
    rng_.restore_state(s);
  }

 private:
  void sleep_scaled(double sim_seconds) const;

  common::ThreadPool& pool_;
  obs::Observability& obs_;
  hpc::UtilizationRecorder& recorder_;
  ExecOverheadModel overhead_;
  common::Rng rng_;
  double time_scale_;
  std::function<double()> now_;

  mutable common::TrackedMutex mutex_{"ThreadExecutor::mutex_"};
  std::unordered_map<std::string, std::shared_ptr<std::atomic<bool>>> cancel_flags_;
};

}  // namespace impress::rp
