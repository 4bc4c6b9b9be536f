#include "runtime/scheduler.hpp"

#include <algorithm>

namespace impress::rp {

std::string_view to_string(SchedulerPolicy p) noexcept {
  switch (p) {
    case SchedulerPolicy::kFifo: return "FIFO";
    case SchedulerPolicy::kBackfill: return "BACKFILL";
  }
  return "?";
}

std::vector<Scheduler::Shape>::iterator Scheduler::find_shape(
    const hpc::ResourceRequest& request) {
  return std::find_if(shapes_.begin(), shapes_.end(),
                      [&](const Shape& s) { return s.request == request; });
}

void Scheduler::enqueue(TaskPtr task) {
  const TaskDescription& td = task->description();
  const int priority = policy_ == SchedulerPolicy::kBackfill ? td.priority : 0;
  auto shape = find_shape(td.resources);
  if (shape == shapes_.end())
    shape = shapes_.insert(shapes_.end(), Shape{td.resources, {}, 0});
  // Insert behind every entry of >= priority. Sequence numbers only grow,
  // so this keeps the shape queue in start order at O(log n) search + one
  // insert (at the back, in the common single-priority case).
  auto& waiting = shape->waiting;
  const auto it = std::upper_bound(
      waiting.begin(), waiting.end(), priority,
      [](int p, const Entry& e) { return p > e.priority; });
  waiting.insert(it, Entry{priority, next_seq_++, std::move(task)});
  ++waiting_;
}

bool Scheduler::remove(const TaskPtr& task) {
  const auto shape = find_shape(task->description().resources);
  if (shape == shapes_.end()) return false;
  auto& waiting = shape->waiting;
  const auto it = std::find_if(waiting.begin(), waiting.end(),
                               [&](const Entry& e) { return e.task == task; });
  if (it == waiting.end()) return false;
  waiting.erase(it);
  --waiting_;
  if (waiting.empty()) shapes_.erase(shape);
  return true;
}

std::deque<TaskPtr> Scheduler::drain() {
  std::vector<Entry> all;
  all.reserve(waiting_);
  for (auto& shape : shapes_)
    for (auto& e : shape.waiting) all.push_back(std::move(e));
  shapes_.clear();
  waiting_ = 0;
  std::sort(all.begin(), all.end(), ahead);
  std::deque<TaskPtr> out;
  for (auto& e : all) out.push_back(std::move(e.task));
  return out;
}

std::size_t Scheduler::try_schedule() {
  // One loop serves both policies: repeatedly try the best waiting task
  // across the shape queues' heads. Under kFifo every priority is 0, so
  // the best head is the oldest task, and a failure ends the pass — the
  // head blocks everything behind it.
  //
  // Under kBackfill a failed shape is skipped for the rest of the pass,
  // which places exactly what trying every waiting task in order would:
  //  * within a pass free capacity only shrinks — try_schedule runs under
  //    the pilot mutex, and every ResourcePool::release happens in
  //    Pilot::on_complete under that same mutex, in threaded mode too;
  //  * whether allocate succeeds is monotone in free cores, host memory
  //    and per-device slice capacity;
  //  * a failed allocate changes nothing.
  // So once a shape fails, every later task of that shape would fail in
  // the same pass, and skipping them leaves the same tasks placed, in the
  // same order, with the same allocations. A pass therefore makes at most
  // placements + shapes allocate attempts.
  const std::uint64_t pass = ++pass_;
  std::size_t started = 0;
  for (;;) {
    auto best = shapes_.end();
    for (auto s = shapes_.begin(); s != shapes_.end(); ++s) {
      if (s->blocked_pass == pass) continue;
      if (best == shapes_.end() ||
          ahead(s->waiting.front(), best->waiting.front()))
        best = s;
    }
    if (best == shapes_.end()) break;
    ++attempts_;
    auto alloc = pool_.allocate(best->request);
    if (!alloc) {
      if (policy_ == SchedulerPolicy::kFifo) break;
      best->blocked_pass = pass;
      continue;
    }
    TaskPtr task = std::move(best->waiting.front().task);
    best->waiting.pop_front();
    --waiting_;
    if (best->waiting.empty()) shapes_.erase(best);
    place_(std::move(task), std::move(*alloc));
    ++started;
  }
  return started;
}

}  // namespace impress::rp
