#include "runtime/thread_executor.hpp"

#include <chrono>
#include <exception>
#include <thread>
#include <vector>

#include "hpc/analytics.hpp"

namespace impress::rp {

void ThreadExecutor::sleep_scaled(double sim_seconds) const {
  if (sim_seconds <= 0.0) return;
  const auto wall = std::chrono::duration<double>(sim_seconds * time_scale_);
  std::this_thread::sleep_for(wall);
}

void ThreadExecutor::launch(TaskPtr task, CompletionFn on_complete) {
  // Draw jitter on the caller's thread (serialized by the pilot lock) so
  // the Rng needs no synchronization.
  double setup = overhead_.setup_mean_s;
  if (setup > 0.0 && overhead_.setup_jitter_sigma > 0.0)
    setup = rng_.lognormal_mean(setup, overhead_.setup_jitter_sigma);
  const FaultInjector::AttemptFault fault = draw_fault(task);
  std::vector<double> durations;
  durations.reserve(task->description().phases.size());
  double total = 0.0;
  for (const auto& p : task->description().phases) {
    double d = p.duration_s;
    if (d > 0.0 && p.jitter_sigma > 0.0) d = rng_.lognormal_mean(d, p.jitter_sigma);
    d *= fault.slow_factor;
    durations.push_back(d);
    total += d;
  }
  // An injected crash aborts the run after this much of the phase time.
  const double fail_budget = fault.fail ? total * fault.fail_fraction : -1.0;

  auto flag = std::make_shared<std::atomic<bool>>(false);
  {
    std::lock_guard lock(mutex_);
    cancel_flags_[task->uid()] = flag;
  }
  // Instrumentation strictly after every rng draw above (bit-exactness).
  obs_.metrics().exec_setup_seconds->observe(setup);
  if (obs::Tracer& tr = obs_.tracer(); tr.enabled())
    task->set_attempt_span(
        tr.begin(now_(), "attempt." + std::to_string(task->attempt()),
                 obs::categories::kAttempt, task->trace_span()));

  pool_.submit([this, task = std::move(task), on_complete = std::move(on_complete),
                setup, durations = std::move(durations), fault, fail_budget,
                flag] {
    obs::Tracer& tr = obs_.tracer();
    tr.mark(now_(), task->uid(), hpc::events::kExecSetupStart);
    const double setup_t0 = now_();
    sleep_scaled(setup);
    if (tr.enabled()) {
      const obs::SpanId span = tr.begin(setup_t0, "exec_setup",
                                        obs::categories::kPhase,
                                        task->attempt_span());
      tr.end(span, now_());
    }
    tr.mark(now_(), task->uid(), hpc::events::kExecStart);

    bool cancelled = false;
    bool crashed = false;
    double spent = 0.0;
    const auto& phases = task->description().phases;
    for (std::size_t i = 0; i < phases.size(); ++i) {
      if (flag->load()) {
        cancelled = true;
        break;
      }
      double d = durations[i];
      if (fault.fail && spent + d >= fail_budget) {
        // Crash partway through this phase; the attempt's usage is not
        // recorded (it produced nothing), mirroring the simulated path.
        sleep_scaled(fail_budget - spent);
        crashed = true;
        break;
      }
      spent += d;
      const double t0 = now_();
      sleep_scaled(d);
      if (fault.fail) continue;  // doomed attempt: no usage accounting
      if (tr.enabled()) {
        const obs::SpanId span = tr.begin(
            t0, phases[i].name, obs::categories::kPhase, task->attempt_span());
        tr.end(span, now_());
      }
      recorder_.record(hpc::UsageInterval{.start = t0,
                                          .end = now_(),
                                          .cores = phases[i].cores,
                                          .gpus = phases[i].gpus,
                                          .cpu_intensity = phases[i].cpu_intensity,
                                          .gpu_intensity = phases[i].gpu_intensity,
                                          .task_uid = task->uid()});
    }
    // Re-check after the last phase: a cancel() that returned true just
    // before we left the loop must not see its task complete normally.
    if (!cancelled && !crashed && flag->load()) cancelled = true;

    const double now = now_();
    if (cancelled) {
      task->set_state(TaskState::kCancelled, now);
    } else if (crashed) {
      task->set_error("injected fault (attempt " +
                      std::to_string(task->attempt()) + ")");
      task->set_state(TaskState::kFailed, now);
    } else if (task->description().work) {
      // Ambient context: library code inside the work function can open
      // child spans under this attempt (see obs::ambient_span).
      obs::AmbientContext ambient(&tr, task->attempt_span());
      try {
        task->set_result(task->description().work(*task));
        task->set_state(TaskState::kDone, now);
      } catch (const std::exception& e) {
        task->set_error(e.what());
        task->set_state(TaskState::kFailed, now);
      } catch (...) {
        task->set_error("unknown error");
        task->set_state(TaskState::kFailed, now);
      }
    } else {
      task->set_state(TaskState::kDone, now);
    }
    tr.mark(now_(), task->uid(), hpc::events::kExecStop,
            crashed ? "injected-fault" : "");
    obs_.metrics().task_run_seconds->observe(
        now_() - task->state_time(TaskState::kExecuting));
    if (tr.enabled()) {
      tr.attr(task->attempt_span(), "outcome",
              crashed ? "injected-fault"
                      : std::string(to_string(task->state())));
      tr.end(task->attempt_span(), now_());
    }
    {
      std::lock_guard lock(mutex_);
      cancel_flags_.erase(task->uid());
    }
    if (on_complete) on_complete(task);
  });
}

bool ThreadExecutor::cancel(const TaskPtr& task) {
  std::lock_guard lock(mutex_);
  const auto it = cancel_flags_.find(task->uid());
  if (it == cancel_flags_.end()) return false;
  it->second->store(true);
  return true;
}

}  // namespace impress::rp
