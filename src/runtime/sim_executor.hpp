// Discrete-event executor: replays task execution against the virtual
// clock. The default backend for campaign replay — a 38-hour IM-RP run
// completes in milliseconds, deterministically.

#pragma once

#include <string>
#include <unordered_map>

#include "common/rng.hpp"
#include "hpc/utilization.hpp"
#include "obs/obs.hpp"
#include "runtime/executor.hpp"
#include "sim/engine.hpp"

namespace impress::rp {

class SimExecutor : public Executor {
 public:
  /// `obs` receives the lifecycle marks, attempt/phase spans and exec
  /// histograms; it must outlive the executor. Instrumentation never
  /// draws from the executor's rng, so enabling it cannot perturb results.
  SimExecutor(sim::Engine& engine, obs::Observability& obs,
              hpc::UtilizationRecorder& recorder, ExecOverheadModel overhead,
              common::Rng rng)
      : engine_(engine),
        obs_(obs),
        recorder_(recorder),
        overhead_(overhead),
        rng_(rng) {}

  void launch(TaskPtr task, CompletionFn on_complete) override;
  bool cancel(const TaskPtr& task) override;

  /// Tasks currently between launch and completion.
  [[nodiscard]] std::size_t in_flight() const noexcept {
    return pending_.size();
  }

  [[nodiscard]] common::Rng::State rng_state() const override {
    return rng_.save_state();
  }
  void restore_rng_state(const common::Rng::State& s) override {
    rng_.restore_state(s);
  }

 private:
  struct InFlight {
    sim::EventId event = 0;  ///< the event that advances this task next
    CompletionFn on_complete;
  };

  void start_phases(const TaskPtr& task);
  void finish(const TaskPtr& task);
  void fail_injected(const TaskPtr& task);

  sim::Engine& engine_;
  obs::Observability& obs_;
  hpc::UtilizationRecorder& recorder_;
  ExecOverheadModel overhead_;
  common::Rng rng_;
  std::unordered_map<std::string, InFlight> pending_;
};

}  // namespace impress::rp
