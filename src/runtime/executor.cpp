#include "runtime/executor.hpp"

#include <algorithm>
#include <exception>
#include <functional>

#include "hpc/analytics.hpp"
#include "runtime/pilot.hpp"
#include "runtime/session.hpp"

namespace impress::rp {

Executor::Executor(Pilot& pilot, obs::Observability& obs, common::Rng rng,
                   const FaultInjector* faults, Session& session)
    : pilot_(pilot), obs_(obs), faults_(faults), session_(session), rng_(rng) {}

void Executor::launch(TaskPtr task) {
  const double now = pilot_.now();
  obs::Tracer& tr = obs_.tracer();
  tr.mark(now, task->uid(), hpc::events::kExecSetupStart);
  const ExecOverheadModel& overhead = pilot_.description().exec_overhead;
  std::lock_guard lock(mutex_);
  double setup = overhead.setup_mean_s;
  if (setup > 0.0 && overhead.setup_jitter_sigma > 0.0)
    setup = rng_.lognormal_mean(setup, overhead.setup_jitter_sigma);
  // Instrumentation strictly after the rng draw: tracing must not shift
  // the stream (the bit-exactness contract).
  obs_.metrics().exec_setup_seconds->observe(setup);
  if (tr.enabled()) {
    const obs::SpanId attempt_span =
        tr.begin(now, "attempt." + std::to_string(task->attempt()),
                 obs::categories::kAttempt, task->trace_span());
    task->set_attempt_span(attempt_span);
    const obs::SpanId span =
        tr.begin(now, "exec_setup", obs::categories::kPhase, attempt_span);
    tr.end(span, now + setup);
  }
  const Task* key = task.get();
  const std::uint64_t seq = next_seq_++;
  Attempt& attempt = in_flight_[key] =
      Attempt{.task = std::move(task), .seq = seq};
  attempt.event = session_.call_at(
      now + setup, [this, key, seq] { start_phases(key, seq); });
}

void Executor::start_phases(const Task* key, std::uint64_t seq) {
  const double start = pilot_.now();
  std::lock_guard lock(mutex_);
  const auto it = in_flight_.find(key);
  if (it == in_flight_.end() || it->second.seq != seq) return;  // cancelled
  const Task& task = *it->second.task;
  // Marked under the lock, so a concurrent cancel's exec_stop follows it.
  obs_.tracer().mark(start, task.uid(), hpc::events::kExecStart);
  const FaultInjector::AttemptFault fault =
      faults_ != nullptr ? faults_->draw_attempt(task.uid(), task.attempt())
                         : FaultInjector::AttemptFault{};

  // Draw all phase durations now so the usage intervals and the end of
  // the attempt agree exactly.
  double t = start;
  std::vector<hpc::UsageInterval> intervals;
  for (const auto& p : task.description().phases) {
    double d = p.duration_s;
    if (d > 0.0 && p.jitter_sigma > 0.0)
      d = rng_.lognormal_mean(d, p.jitter_sigma);
    d *= fault.slow_factor;
    intervals.push_back(hpc::UsageInterval{.start = t,
                                           .end = t + d,
                                           .cores = p.cores,
                                           .gpus = p.gpus,
                                           .cpu_intensity = p.cpu_intensity,
                                           .gpu_intensity = p.gpu_intensity,
                                           .task_uid = task.uid()});
    t += d;
  }

  std::function<void()> step;
  double end = t;
  if (fault.fail) {
    // Injected crash partway through the run.
    end = start + (t - start) * fault.fail_fraction;
    step = [this, key, seq] { fail_injected(key, seq); };
  } else {
    step = [this, key, seq, intervals = std::move(intervals)]() mutable {
      finish(key, seq, std::move(intervals));
    };
  }
  it->second.event = session_.call_at(end, std::move(step));
}

void Executor::finish(const Task* key, std::uint64_t seq,
                      std::vector<hpc::UsageInterval> intervals) {
  TaskPtr task;
  {
    std::lock_guard lock(mutex_);
    task = claim(key, seq);
  }
  if (!task) return;
  // Usage and phase spans are only recorded for an attempt that ran to
  // its end, with the intervals' explicit times.
  if (obs::Tracer& tr = obs_.tracer(); tr.enabled()) {
    const auto& phases = task->description().phases;
    for (std::size_t i = 0; i < intervals.size(); ++i) {
      const obs::SpanId span =
          tr.begin(intervals[i].start, phases[i].name, obs::categories::kPhase,
                   task->attempt_span());
      tr.end(span, intervals[i].end);
    }
  }
  for (auto& iv : intervals) pilot_.recorder().record(std::move(iv));

  const double now = pilot_.now();
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
  obs_.metrics().task_run_seconds->observe(
      now - task->state_time(TaskState::kExecuting));
  stop(task, now, {}, to_string(task->state()));
}

void Executor::fail_injected(const Task* key, std::uint64_t seq) {
  TaskPtr task;
  {
    std::lock_guard lock(mutex_);
    task = claim(key, seq);
  }
  if (!task) return;
  const double now = pilot_.now();
  task->set_error("injected fault (attempt " + std::to_string(task->attempt()) +
                  ")");
  task->set_state(TaskState::kFailed, now);
  stop(task, now, "injected-fault", "injected-fault");
}

bool Executor::cancel(const TaskPtr& task) {
  {
    std::lock_guard lock(mutex_);
    const auto it = in_flight_.find(task.get());
    if (it == in_flight_.end()) return false;
    session_.cancel(it->second.event);
    in_flight_.erase(it);
  }
  const double now = pilot_.now();
  task->set_state(TaskState::kCancelled, now);
  stop(task, now, "cancelled", "cancelled");
  return true;
}

TaskPtr Executor::claim(const Task* key, std::uint64_t seq) {
  const auto it = in_flight_.find(key);
  if (it == in_flight_.end() || it->second.seq != seq) return nullptr;
  TaskPtr task = std::move(it->second.task);
  in_flight_.erase(it);
  return task;
}

void Executor::stop(const TaskPtr& task, double now, std::string_view info,
                    std::string_view outcome) {
  obs::Tracer& tr = obs_.tracer();
  tr.mark(now, task->uid(), hpc::events::kExecStop, info);
  tr.attr(task->attempt_span(), "outcome", outcome);
  tr.end(task->attempt_span(), now);
  pilot_.on_complete(task);
}

std::vector<TaskPtr> Executor::in_flight() const {
  std::vector<const Attempt*> attempts;
  std::lock_guard lock(mutex_);
  attempts.reserve(in_flight_.size());
  for (const auto& [key, attempt] : in_flight_) attempts.push_back(&attempt);
  std::sort(attempts.begin(), attempts.end(),
            [](const Attempt* a, const Attempt* b) { return a->seq < b->seq; });
  std::vector<TaskPtr> out;
  out.reserve(attempts.size());
  for (const Attempt* a : attempts) out.push_back(a->task);
  return out;
}

common::Rng::State Executor::rng_state() const {
  std::lock_guard lock(mutex_);
  return rng_.save_state();
}

void Executor::restore_rng_state(const common::Rng::State& s) {
  std::lock_guard lock(mutex_);
  rng_.restore_state(s);
}

}  // namespace impress::rp
