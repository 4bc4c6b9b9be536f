#include "runtime/task_manager.hpp"

#include <limits>
#include <stdexcept>
#include <utility>

#include "common/logging.hpp"
#include "common/string_util.hpp"
#include "hpc/analytics.hpp"

namespace impress::rp {

TaskManager::TaskManager(common::UidGenerator& uids, obs::Observability& obs,
                         std::function<double()> now_fn, DeferFn defer,
                         common::Rng rng)
    : uids_(uids),
      obs_(obs),
      now_(std::move(now_fn)),
      defer_(std::move(defer)),
      rng_(rng) {}

void TaskManager::add_pilot(PilotPtr pilot) {
  std::lock_guard lock(mutex_);
  pilots_.push_back(std::move(pilot));
}

PilotPtr TaskManager::route(const TaskDescription& td, const Pilot* exclude) {
  // Least-loaded (queued + running) among live pilots that can ever fit.
  PilotPtr best;
  std::size_t best_load = std::numeric_limits<std::size_t>::max();
  for (const auto& p : pilots_) {
    if (p.get() == exclude) continue;
    const PilotState s = p->state();
    if (s == PilotState::kDone || s == PilotState::kFailed) continue;
    if (!p->pool().fits_ever(td.resources)) continue;
    const std::size_t load = p->queue_length() + p->running();
    if (load < best_load) {
      best_load = load;
      best = p;
    }
  }
  return best;
}

TaskPtr TaskManager::submit(TaskDescription description) {
  PilotPtr pilot;
  TaskPtr task;
  {
    std::lock_guard lock(mutex_);
    pilot = route(description);
    if (!pilot)
      throw std::runtime_error("TaskManager: no pilot can run task '" +
                               description.name + "'");
    task = std::make_shared<Task>(uids_.next("task"), std::move(description));
    task->set_state(TaskState::kSubmitted, now_());
    obs_.tracer().mark(now_(), task->uid(), hpc::events::kSubmit,
                       task->description().name);
    routes_.emplace(task.get(), Route{.pilot = pilot});
    ++outstanding_;
    ++counters_.submitted;
  }
  obs_.metrics().tasks_submitted->inc();
  obs_.metrics().tasks_outstanding->add(1.0);
  if (obs::Tracer& tracer = obs_.tracer(); tracer.enabled()) {
    // The task span covers submit -> terminal across every attempt,
    // nested under the submitting stage (TaskDescription::trace_parent).
    const obs::SpanId span =
        tracer.begin(now_(), task->description().name, obs::categories::kTask,
                     task->description().trace_parent);
    tracer.attr(span, "uid", task->uid());
    task->set_trace_span(span);
  }
  IMPRESS_LOG(kDebug, "tmgr") << "submit " << task->uid() << " ('"
                              << task->description().name << "') -> "
                              << pilot->uid();
  dispatch(task, std::move(pilot));
  return task;
}

std::vector<TaskPtr> TaskManager::submit(std::vector<TaskDescription> descriptions) {
  std::vector<TaskPtr> out;
  out.reserve(descriptions.size());
  for (auto& d : descriptions) out.push_back(submit(std::move(d)));
  return out;
}

void TaskManager::dispatch(const TaskPtr& task, PilotPtr pilot) {
  for (;;) {
    if (pilot->try_enqueue(task)) {
      arm_deadline(task);
      return;
    }
    // The pilot died between routing and enqueueing: re-route around it.
    PilotPtr next;
    {
      std::lock_guard lock(mutex_);
      next = route(task->description(), pilot.get());
      if (next) routes_[task.get()] = Route{.pilot = next};
    }
    if (!next) {
      fail_unroutable(task, "pilot " + pilot->uid() + " died; no alternative");
      return;
    }
    obs_.tracer().mark(now_(), task->uid(), hpc::events::kRequeue, next->uid());
    pilot = std::move(next);
  }
}

void TaskManager::arm_deadline(const TaskPtr& task) {
  const double timeout = task->description().retry.attempt_timeout_s;
  if (timeout <= 0.0) return;
  const int attempt = task->attempt();
  defer_(timeout, [this, task, attempt, timeout] {
    // Fires only if the same attempt is still live; a completed or retried
    // task keeps its new attempt untouched.
    if (task->attempt() != attempt || is_terminal(task->state())) return;
    PilotPtr pilot;
    {
      std::lock_guard lock(mutex_);
      const auto it = routes_.find(task.get());
      if (it == routes_.end() || it->second.backoff) return;
      pilot = it->second.pilot;
      ++counters_.timed_out;
    }
    obs_.metrics().tasks_timed_out->inc();
    obs_.tracer().mark(now_(), task->uid(), hpc::events::kTimeout,
                       "attempt " + std::to_string(attempt));
    IMPRESS_LOG(kWarn, "tmgr") << task->uid() << " attempt " << attempt
                               << " exceeded deadline of " << timeout << "s";
    task->set_evict_reason(EvictReason::kTimeout);
    // The eviction surfaces as a kCancelled completion; on_terminal
    // translates it back into a failed attempt so the retry policy runs.
    if (!pilot->cancel(task)) task->set_evict_reason(EvictReason::kNone);
  });
}

std::size_t TaskManager::add_callback(Callback cb) {
  std::lock_guard lock(mutex_);
  callbacks_.push_back(std::move(cb));
  return callbacks_.size() - 1;
}

void TaskManager::remove_callback(std::size_t id) {
  std::unique_lock lock(mutex_);
  if (id < callbacks_.size()) callbacks_[id] = nullptr;
  // A finalize pass snapshots callbacks_ under the mutex, so once every
  // in-flight pass drains, no thread can still invoke the removed slot.
  idle_cv_.wait(lock, [&] { return callbacks_in_flight_ == 0; });
}

bool TaskManager::cancel(const TaskPtr& task) {
  PilotPtr pilot;
  bool in_backoff = false;
  {
    // State check and map lookups are atomic with respect to on_terminal:
    // both run under mutex_, so a task cannot be observed live here while
    // its terminal bookkeeping is mid-flight (the old TOCTOU).
    std::lock_guard lock(mutex_);
    if (is_terminal(task->state())) return false;
    const auto it = routes_.find(task.get());
    if (it == routes_.end()) return false;
    if (it->second.backoff) {
      routes_.erase(it);
      in_backoff = true;
      task->set_state(TaskState::kCancelled, now_());
      obs_.tracer().mark(now_(), task->uid(), hpc::events::kCancelled,
                         "during retry backoff");
    } else {
      pilot = it->second.pilot;
    }
  }
  if (in_backoff) {
    finalize(task);
    return true;
  }
  return pilot->cancel(task);
}

std::size_t TaskManager::outstanding() const {
  std::lock_guard lock(mutex_);
  return outstanding_;
}

void TaskManager::wait_all() {
  std::unique_lock lock(mutex_);
  // Both conditions matter: outstanding_ hits zero *before* the terminal
  // callbacks of the last task run, and a callback may submit follow-on
  // work. callbacks_in_flight_ bridges that window.
  idle_cv_.wait(lock,
                [&] { return outstanding_ == 0 && callbacks_in_flight_ == 0; });
}

TerminalFn TaskManager::terminal_handler() {
  return [this](const TaskPtr& task) { on_terminal(task); };
}

RequeueFn TaskManager::requeue_handler() {
  return [this](const TaskPtr& task) { requeue(task); };
}

void TaskManager::on_terminal(const TaskPtr& task) {
  // A forcible eviction (deadline, pilot failure) completes as kCancelled;
  // from the retry policy's point of view it is a failed attempt.
  const EvictReason reason = task->take_evict_reason();
  if (reason != EvictReason::kNone && task->state() == TaskState::kCancelled) {
    task->set_error(reason == EvictReason::kTimeout
                        ? "attempt deadline exceeded"
                        : "pilot failed during execution");
    task->set_state(TaskState::kFailed, now_());
    obs_.tracer().mark(now_(), task->uid(), hpc::events::kFailed,
                       reason == EvictReason::kTimeout ? "deadline"
                                                       : "pilot-failure");
  }

  if (task->state() == TaskState::kFailed) {
    const RetryPolicy& policy = task->description().retry;
    std::unique_lock lock(mutex_);
    const bool retryable = task->attempt() < policy.max_attempts &&
                           route(task->description()) != nullptr;
    if (retryable) {
      ++counters_.retried;
      routes_[task.get()].backoff = true;
      // The task is not terminal while it waits out the backoff — it is
      // still outstanding and cancellable. The error text of the failed
      // attempt is kept for observability until begin_retry clears it.
      task->set_state(TaskState::kSubmitted, now_());
      common::Rng jitter =
          rng_.fork(common::stable_hash(task->uid()) +
                    static_cast<std::uint64_t>(task->attempt()));
      const double delay = policy.backoff_delay(task->attempt() + 1, jitter);
      obs_.tracer().mark(now_(), task->uid(), hpc::events::kRetry,
                         "attempt " + std::to_string(task->attempt()) +
                             " failed; next in " + std::to_string(delay) + "s");
      lock.unlock();
      obs_.metrics().tasks_retried->inc();
      IMPRESS_LOG(kInfo, "tmgr")
          << task->uid() << " attempt " << task->attempt() << "/"
          << policy.max_attempts << " failed (" << task->error()
          << "); retrying in " << delay << "s";
      defer_(delay, [this, task] { resubmit(task); });
      return;  // still outstanding; wait_all keeps blocking
    }
  }
  finalize(task);
}

void TaskManager::resubmit(const TaskPtr& task) {
  PilotPtr pilot;
  {
    std::lock_guard lock(mutex_);
    const auto it = routes_.find(task.get());
    if (it == routes_.end() || !it->second.backoff)
      return;  // cancelled during the backoff
    // Prefer a different pilot than the one the attempt failed on; fall
    // back to it only when nothing else fits.
    pilot = route(task->description(), it->second.pilot.get());
    if (!pilot) pilot = route(task->description());
    if (pilot) {
      task->begin_retry(now_());
      it->second = Route{.pilot = pilot};
      obs_.tracer().mark(now_(), task->uid(), hpc::events::kSubmit,
                         "attempt " + std::to_string(task->attempt()));
    } else {
      routes_.erase(it);
    }
  }
  if (!pilot) {
    fail_unroutable(task, "no live pilot for retry");
    return;
  }
  IMPRESS_LOG(kDebug, "tmgr") << "resubmit " << task->uid() << " attempt "
                              << task->attempt() << " -> " << pilot->uid();
  dispatch(task, std::move(pilot));
}

void TaskManager::requeue(const TaskPtr& task) {
  PilotPtr pilot;
  {
    std::lock_guard lock(mutex_);
    if (is_terminal(task->state())) return;
    pilot = route(task->description());
    if (pilot) {
      ++counters_.requeued;
      routes_[task.get()] = Route{.pilot = pilot};
    }
  }
  if (!pilot) {
    fail_unroutable(task, "pilot failed; no alternative fits");
    return;
  }
  obs_.metrics().tasks_requeued->inc();
  IMPRESS_LOG(kInfo, "tmgr") << "requeue " << task->uid() << " -> "
                             << pilot->uid();
  dispatch(task, std::move(pilot));
}

void TaskManager::fail_unroutable(const TaskPtr& task, const std::string& why) {
  task->set_error(why);
  task->set_state(TaskState::kFailed, now_());
  obs_.tracer().mark(now_(), task->uid(), hpc::events::kFailed, why);
  finalize(task);
}

void TaskManager::finalize(const TaskPtr& task) {
  const TaskState state = task->state();
  const obs::RuntimeMetrics& metrics = obs_.metrics();
  switch (state) {
    case TaskState::kDone: metrics.tasks_done->inc(); break;
    case TaskState::kFailed: metrics.tasks_failed->inc(); break;
    case TaskState::kCancelled: metrics.tasks_cancelled->inc(); break;
    default: break;
  }
  metrics.tasks_outstanding->sub(1.0);
  if (obs::Tracer& tracer = obs_.tracer();
      tracer.enabled() && task->trace_span() != 0) {
    tracer.attr(task->trace_span(), "outcome", std::string(to_string(state)));
    if (task->attempt() > 1)
      tracer.attr(task->trace_span(), "attempts",
                  std::to_string(task->attempt()));
    tracer.end(task->trace_span(), now_());
  }
  std::vector<Callback> callbacks;
  {
    std::lock_guard lock(mutex_);
    routes_.erase(task.get());
    if (outstanding_ > 0) --outstanding_;
    switch (task->state()) {
      case TaskState::kDone: ++counters_.done; break;
      case TaskState::kFailed: ++counters_.failed; break;
      case TaskState::kCancelled: ++counters_.cancelled; break;
      default: break;
    }
    callbacks = callbacks_;  // snapshot: callbacks may submit more tasks
    // Count the callback pass *before* releasing the lock: wait_all must
    // not observe outstanding_ == 0 while a callback that could submit
    // follow-on work is still pending — the old early-return race.
    ++callbacks_in_flight_;
  }
  for (const auto& cb : callbacks)
    if (cb) cb(task);
  {
    std::lock_guard lock(mutex_);
    --callbacks_in_flight_;
  }
  idle_cv_.notify_all();
}

}  // namespace impress::rp
