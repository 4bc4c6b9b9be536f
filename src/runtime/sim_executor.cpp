#include "runtime/sim_executor.hpp"

#include <exception>
#include <vector>

#include "hpc/analytics.hpp"

namespace impress::rp {

void SimExecutor::launch(TaskPtr task, CompletionFn on_complete) {
  const double now = engine_.now();
  obs::Tracer& tr = obs_.tracer();
  tr.mark(now, task->uid(), hpc::events::kExecSetupStart);
  double setup = overhead_.setup_mean_s;
  if (setup > 0.0 && overhead_.setup_jitter_sigma > 0.0)
    setup = rng_.lognormal_mean(setup, overhead_.setup_jitter_sigma);
  // Instrumentation strictly after the rng draw: tracing must not shift
  // the stream (the bit-exactness contract).
  obs_.metrics().exec_setup_seconds->observe(setup);
  if (tr.enabled()) {
    const obs::SpanId attempt =
        tr.begin(now, "attempt." + std::to_string(task->attempt()),
                 obs::categories::kAttempt, task->trace_span());
    task->set_attempt_span(attempt);
    const obs::SpanId span =
        tr.begin(now, "exec_setup", obs::categories::kPhase, attempt);
    tr.end(span, now + setup);
  }
  auto& entry = pending_[task->uid()];
  entry.on_complete = std::move(on_complete);
  entry.event =
      engine_.schedule_after(setup, [this, task] { start_phases(task); });
}

void SimExecutor::start_phases(const TaskPtr& task) {
  const double start = engine_.now();
  obs_.tracer().mark(start, task->uid(), hpc::events::kExecStart);

  const FaultInjector::AttemptFault fault = draw_fault(task);

  // Draw all phase durations now so the usage intervals and the completion
  // time agree exactly.
  double t = start;
  std::vector<hpc::UsageInterval> intervals;
  for (const auto& p : task->description().phases) {
    double d = p.duration_s;
    if (d > 0.0 && p.jitter_sigma > 0.0) d = rng_.lognormal_mean(d, p.jitter_sigma);
    d *= fault.slow_factor;
    intervals.push_back(hpc::UsageInterval{.start = t,
                                           .end = t + d,
                                           .cores = p.cores,
                                           .gpus = p.gpus,
                                           .cpu_intensity = p.cpu_intensity,
                                           .gpu_intensity = p.gpu_intensity,
                                           .task_uid = task->uid()});
    t += d;
  }

  const auto it = pending_.find(task->uid());
  if (it == pending_.end()) return;  // cancelled between events

  if (fault.fail) {
    // Injected crash partway through the run: no usage is recorded (the
    // attempt produced nothing), mirroring the cancel path.
    const double t_fail = start + (t - start) * fault.fail_fraction;
    it->second.event =
        engine_.schedule_at(t_fail, [this, task] { fail_injected(task); });
    return;
  }

  it->second.event = engine_.schedule_at(
      t, [this, task, intervals = std::move(intervals)]() mutable {
        // Usage is only recorded when the task actually ran to completion;
        // a cancelled task never reaches this event. Phase spans follow
        // the same rule, with the intervals' explicit times.
        if (obs::Tracer& tr = obs_.tracer(); tr.enabled()) {
          const auto& phases = task->description().phases;
          for (std::size_t i = 0; i < intervals.size(); ++i) {
            const obs::SpanId span = tr.begin(
                intervals[i].start, phases[i].name, obs::categories::kPhase,
                task->attempt_span());
            tr.end(span, intervals[i].end);
          }
        }
        for (auto& iv : intervals) recorder_.record(std::move(iv));
        finish(task);
      });
}

void SimExecutor::fail_injected(const TaskPtr& task) {
  const auto it = pending_.find(task->uid());
  if (it == pending_.end()) return;
  CompletionFn on_complete = std::move(it->second.on_complete);
  pending_.erase(it);

  const double now = engine_.now();
  task->set_error("injected fault (attempt " + std::to_string(task->attempt()) +
                  ")");
  task->set_state(TaskState::kFailed, now);
  obs::Tracer& tr = obs_.tracer();
  tr.mark(now, task->uid(), hpc::events::kExecStop, "injected-fault");
  tr.attr(task->attempt_span(), "outcome", "injected-fault");
  tr.end(task->attempt_span(), now);
  if (on_complete) on_complete(task);
}

void SimExecutor::finish(const TaskPtr& task) {
  const auto it = pending_.find(task->uid());
  if (it == pending_.end()) return;
  CompletionFn on_complete = std::move(it->second.on_complete);
  pending_.erase(it);

  const double now = engine_.now();
  if (task->description().work) {
    // Ambient context: code inside the work function (mpnn sampler, fold
    // surrogate) can open child spans under this attempt.
    obs::AmbientContext ambient(&obs_.tracer(), task->attempt_span());
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
  obs::Tracer& tr = obs_.tracer();
  tr.mark(now, task->uid(), hpc::events::kExecStop);
  obs_.metrics().task_run_seconds->observe(
      now - task->state_time(TaskState::kExecuting));
  if (tr.enabled()) {
    tr.attr(task->attempt_span(), "outcome",
            std::string(to_string(task->state())));
    tr.end(task->attempt_span(), now);
  }
  if (on_complete) on_complete(task);
}

bool SimExecutor::cancel(const TaskPtr& task) {
  const auto it = pending_.find(task->uid());
  if (it == pending_.end()) return false;
  engine_.cancel(it->second.event);
  CompletionFn on_complete = std::move(it->second.on_complete);
  pending_.erase(it);
  task->set_state(TaskState::kCancelled, engine_.now());
  obs::Tracer& tr = obs_.tracer();
  tr.mark(engine_.now(), task->uid(), hpc::events::kExecStop, "cancelled");
  tr.attr(task->attempt_span(), "outcome", "cancelled");
  tr.end(task->attempt_span(), engine_.now());
  if (on_complete) on_complete(task);
  return true;
}

}  // namespace impress::rp
