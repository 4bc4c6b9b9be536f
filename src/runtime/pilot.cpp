#include "runtime/pilot.hpp"

#include <stdexcept>

#include "common/logging.hpp"
#include "hpc/analytics.hpp"

namespace impress::rp {

std::string_view to_string(PilotState s) noexcept {
  switch (s) {
    case PilotState::kLaunching: return "LAUNCHING";
    case PilotState::kActive: return "ACTIVE";
    case PilotState::kDone: return "DONE";
    case PilotState::kFailed: return "FAILED";
  }
  return "?";
}

Pilot::Pilot(std::string uid, PilotDescription description,
             obs::Observability& obs, std::function<double()> now_fn,
             bool restored)
    : uid_(std::move(uid)),
      description_(std::move(description)),
      obs_(obs),
      now_(std::move(now_fn)),
      pool_(description_.nodes),
      recorder_(pool_.total_cores(), pool_.total_gpus()),
      scheduler_(description_.policy, pool_,
                 [this](TaskPtr t, hpc::Allocation a) {
                   place(std::move(t), std::move(a));
                 }) {
  if (!restored) obs_.tracer().mark(now_(), uid_, hpc::events::kBootstrapStart);
}

void Pilot::attach(Executor& executor, CompletionFn on_task_terminal,
                   RequeueFn on_task_requeue) {
  std::lock_guard lock(mutex_);
  executor_ = &executor;
  on_task_terminal_ = std::move(on_task_terminal);
  on_task_requeue_ = std::move(on_task_requeue);
}

void Pilot::activate() {
  std::lock_guard lock(mutex_);
  if (state_ != PilotState::kLaunching) return;
  state_ = PilotState::kActive;
  obs_.tracer().mark(now_(), uid_, hpc::events::kBootstrapStop);
  IMPRESS_LOG(kInfo, "pilot") << uid_ << " active ("
                              << pool_.total_cores() << " cores, "
                              << pool_.total_gpus() << " gpus)";
  run_scheduler();
}

void Pilot::run_scheduler() {
  // Called with mutex_ held.
  const std::size_t placed = scheduler_.try_schedule();
  obs_.metrics().scheduler_ticks->inc();
  if (placed > 0) obs_.metrics().scheduler_placements->add(placed);
}

void Pilot::enqueue(TaskPtr task) {
  const std::string uid = task->uid();
  if (!try_enqueue(std::move(task)))
    throw std::logic_error("Pilot::enqueue of " + uid + " on " +
                           std::string(to_string(state())) + " pilot " + uid_);
}

bool Pilot::try_enqueue(TaskPtr task) {
  std::lock_guard lock(mutex_);
  if (state_ == PilotState::kDone || state_ == PilotState::kFailed)
    return false;
  if (!pool_.fits_ever(task->description().resources))
    throw std::invalid_argument("task " + task->uid() +
                                " can never fit on pilot " + uid_);
  task->set_state(TaskState::kScheduling, now_());
  obs_.tracer().mark(now_(), task->uid(), hpc::events::kSchedule, uid_);
  obs_.metrics().scheduler_enqueues->inc();
  scheduler_.enqueue(std::move(task));
  if (state_ == PilotState::kActive) run_scheduler();
  return true;
}

bool Pilot::dequeue(const TaskPtr& task) {
  std::lock_guard lock(mutex_);
  return scheduler_.remove(task);
}

bool Pilot::cancel(const TaskPtr& task) {
  CompletionFn notify;
  Executor* executor = nullptr;
  {
    std::lock_guard lock(mutex_);
    if (scheduler_.remove(task)) {
      task->set_state(TaskState::kCancelled, now_());
      obs_.tracer().mark(now_(), task->uid(), hpc::events::kCancelled, uid_);
      notify = on_task_terminal_;
    } else {
      executor = executor_;
    }
  }
  if (notify) {
    notify(task);
    return true;
  }
  // Executing (or already gone): forward to the executor *outside* the
  // pilot lock — its completion path re-enters on_complete and then the
  // TaskManager, and holding mutex_ across that inverts the
  // TaskManager->Pilot lock order used by submit()/route().
  return executor != nullptr && executor->cancel(task);
}

std::size_t Pilot::queue_length() const {
  std::lock_guard lock(mutex_);
  return scheduler_.queue_length();
}

void Pilot::finish() {
  std::lock_guard lock(mutex_);
  if (state_ != PilotState::kFailed) state_ = PilotState::kDone;
}

void Pilot::fail() {
  std::deque<TaskPtr> drained;
  std::vector<TaskPtr> evicted;
  RequeueFn requeue;
  CompletionFn notify;
  Executor* executor = nullptr;
  {
    std::lock_guard lock(mutex_);
    if (state_ == PilotState::kDone || state_ == PilotState::kFailed) return;
    state_ = PilotState::kFailed;
    obs_.tracer().mark(now_(), uid_, hpc::events::kPilotFailed);
    drained = scheduler_.drain();
    evicted.reserve(executing_.size());
    for (const auto& [uid, t] : executing_) evicted.push_back(t);
    requeue = on_task_requeue_;
    notify = on_task_terminal_;
    executor = executor_;
  }
  IMPRESS_LOG(kWarn, "pilot") << uid_ << " FAILED: draining "
                              << drained.size() << " queued, evicting "
                              << evicted.size() << " executing task(s)";
  // All callbacks run outside mutex_: requeue re-enters the TaskManager
  // (which routes to other pilots) and eviction re-enters on_complete via
  // the executor's cancel path.
  for (const auto& task : drained) {
    if (requeue) {
      obs_.tracer().mark(now_(), task->uid(), hpc::events::kRequeue, uid_);
      requeue(task);
    } else {
      task->set_error("pilot " + uid_ + " failed");
      task->set_state(TaskState::kFailed, now_());
      obs_.tracer().mark(now_(), task->uid(), hpc::events::kFailed, uid_);
      if (notify) notify(task);
    }
  }
  for (const auto& task : evicted) {
    task->set_evict_reason(EvictReason::kPilotFailure);
    if (executor != nullptr) (void)executor->cancel(task);
  }
}

void Pilot::reactivate() {
  std::lock_guard lock(mutex_);
  if (state_ != PilotState::kFailed) return;
  state_ = PilotState::kActive;
  obs_.tracer().mark(now_(), uid_, hpc::events::kPilotReactivated);
  IMPRESS_LOG(kInfo, "pilot") << uid_ << " reactivated (spot capacity back)";
  // fail() released nothing — evicted tasks return their allocations via
  // the executor's cancel path — so by the time work routes back here the
  // pool has drained naturally. Kick the (empty) scheduler anyway in case
  // a task was enqueued between the state flip and now.
  run_scheduler();
}

void Pilot::place(TaskPtr task, hpc::Allocation alloc) {
  // Called from scheduler.try_schedule() with mutex_ held.
  if (executor_ == nullptr)
    throw std::logic_error("Pilot::place before attach on " + uid_);
  task->set_allocation(std::move(alloc));
  task->set_state(TaskState::kExecuting, now_());
  ++running_;
  executing_[task->uid()] = task;
  executor_->launch(std::move(task),
                    [this](const TaskPtr& t) { on_complete(t); });
}

void Pilot::on_complete(const TaskPtr& task) {
  CompletionFn notify;
  {
    std::lock_guard lock(mutex_);
    pool_.release(task->allocation());
    task->clear_allocation();
    --running_;
    executing_.erase(task->uid());
    obs_.tracer().mark(now_(), task->uid(),
                       task->state() == TaskState::kDone ? hpc::events::kDone
                       : task->state() == TaskState::kFailed
                           ? hpc::events::kFailed
                           : hpc::events::kCancelled,
                       uid_);
    if (state_ == PilotState::kActive) run_scheduler();
    notify = on_task_terminal_;
  }
  if (notify) notify(task);
}

}  // namespace impress::rp
