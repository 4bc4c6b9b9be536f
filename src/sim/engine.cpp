#include "sim/engine.hpp"

#include <algorithm>

namespace impress::sim {

EventId Engine::schedule_at(SimTime t, std::function<void()> fn) {
  const SimTime at = std::max(t, now_);
  const EventId id = pool_.acquire(std::move(fn));
  heap_.push_back(Entry{at, next_seq_++, id});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return id;
}

EventId Engine::schedule_after(SimTime delay, std::function<void()> fn) {
  return schedule_at(now_ + std::max(delay, 0.0), std::move(fn));
}

bool Engine::cancel(EventId id) {
  if (!pool_.is_live(id)) return false;
  pool_.release(id);
  maybe_compact();
  return true;
}

void Engine::maybe_compact() {
  if (heap_.size() < 64) return;
  std::size_t live_in_batch = 0;
  for (std::size_t i = batch_pos_; i < batch_.size(); ++i)
    if (pool_.is_live(batch_[i].id)) ++live_in_batch;
  const std::size_t live_in_heap = pool_.live_count() - live_in_batch;
  if (heap_.size() <= 2 * live_in_heap) return;
  std::erase_if(heap_, [this](const Entry& e) { return !pool_.is_live(e.id); });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
}

void Engine::pop_heap_top() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
}

bool Engine::step() {
  for (;;) {
    while (batch_pos_ < batch_.size()) {
      const Entry ev = batch_[batch_pos_++];
      if (!pool_.is_live(ev.id)) continue;  // cancelled mid-batch
      std::function<void()> fn = pool_.release(ev.id);
      now_ = ev.time;
      ++fired_;
      fn();
      return true;
    }
    batch_.clear();
    batch_pos_ = 0;
    if (heap_.empty()) return false;
    // Pop every entry sharing the earliest timestamp, in seq order.
    const SimTime t = heap_.front().time;
    do {
      batch_.push_back(heap_.front());
      pop_heap_top();
    } while (!heap_.empty() && heap_.front().time == t);
  }
}

std::size_t Engine::run() {
  stopped_ = false;
  std::size_t n = 0;
  while (!stopped_ && step()) ++n;
  return n;
}

std::optional<SimTime> Engine::next_time() {
  while (batch_pos_ < batch_.size()) {
    if (pool_.is_live(batch_[batch_pos_].id)) return batch_[batch_pos_].time;
    ++batch_pos_;  // tombstone: skipping it here is free
  }
  while (!heap_.empty()) {
    const Entry& top = heap_.front();
    if (pool_.is_live(top.id)) return top.time;
    pop_heap_top();  // discard tombstone
  }
  return std::nullopt;
}

std::size_t Engine::run_until(SimTime t_end) {
  stopped_ = false;
  std::size_t n = 0;
  while (!stopped_) {
    const std::optional<SimTime> next = next_time();
    if (!next || *next > t_end) break;
    step();
    ++n;
  }
  // Even if no event fires at t_end, time advances to it — unless an
  // event called stop(), in which case the clock stays where it halted.
  if (!stopped_) now_ = std::max(now_, t_end);
  return n;
}

bool Engine::warp_to(SimTime t) noexcept {
  if (pool_.live_count() != 0 || t < now_) return false;
  now_ = t;
  // Any entries still queued are tombstones of cancelled events; a warp
  // is a clean restore point, so drop them outright.
  heap_.clear();
  batch_.clear();
  batch_pos_ = 0;
  return true;
}

}  // namespace impress::sim
