// Agent-side scheduler: orders waiting tasks and places them onto the
// pilot's resource pool.
//
// Policies:
//  * kFifo     — strict submission order; the queue head blocks everything
//                behind it (models a plain sequential backend).
//  * kBackfill — any waiting task that fits may start, higher priority and
//                earlier submission first. This is what lets IM-RP fill
//                idle cores with sub-pipeline tasks while a wide AlphaFold
//                feature stage is still running (paper §III-B).
//
// Waiting tasks are kept in one queue per request shape (the full
// hpc::ResourceRequest), so a pass costs one allocate attempt per
// placement plus at most one failed attempt per shape, however deep the
// backlog (see try_schedule).

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "hpc/resource_pool.hpp"
#include "runtime/task.hpp"

namespace impress::rp {

enum class SchedulerPolicy { kFifo, kBackfill };

[[nodiscard]] std::string_view to_string(SchedulerPolicy p) noexcept;

class Scheduler {
 public:
  /// `place` is invoked for every task the scheduler starts; the caller
  /// (the pilot) launches it on its executor.
  using PlaceFn = std::function<void(TaskPtr, hpc::Allocation)>;

  Scheduler(SchedulerPolicy policy, hpc::ResourcePool& pool, PlaceFn place)
      : policy_(policy), pool_(pool), place_(std::move(place)) {}

  /// Add a task to the waiting queue of its request shape (does not
  /// schedule yet). Under kBackfill each shape queue is kept in priority
  /// order here — higher priority first, submission order preserved
  /// within a class — so try_schedule never has to sort.
  void enqueue(TaskPtr task);

  /// Remove a queued task; returns false if it is not waiting here.
  bool remove(const TaskPtr& task);

  /// Remove and return every waiting task, in the order the policy would
  /// start them (kFifo: submission order; kBackfill: priority, then
  /// submission). Used when a pilot fails: its backlog is handed back to
  /// the TaskManager for re-routing instead of stranding.
  [[nodiscard]] std::deque<TaskPtr> drain();

  /// Place as many waiting tasks as the policy and free resources allow.
  /// Returns the number of tasks started.
  [[nodiscard]] std::size_t try_schedule();

  [[nodiscard]] std::size_t queue_length() const noexcept { return waiting_; }
  [[nodiscard]] SchedulerPolicy policy() const noexcept { return policy_; }
  /// Cumulative number of ResourcePool::allocate calls try_schedule made.
  [[nodiscard]] std::uint64_t allocate_attempts() const noexcept {
    return attempts_;
  }

 private:
  struct Entry {
    int priority = 0;       ///< always 0 under kFifo, which ignores priority
    std::uint64_t seq = 0;  ///< enqueue order, unique
    TaskPtr task;
  };
  /// The waiting tasks of one request shape, in start order.
  struct Shape {
    hpc::ResourceRequest request;
    std::deque<Entry> waiting;  ///< never empty: empty shapes are dropped
    std::uint64_t blocked_pass = 0;  ///< last pass in which allocate failed
  };

  /// Start order: higher priority first, then earlier enqueue.
  [[nodiscard]] static bool ahead(const Entry& a, const Entry& b) noexcept {
    if (a.priority != b.priority) return a.priority > b.priority;
    return a.seq < b.seq;
  }
  [[nodiscard]] std::vector<Shape>::iterator find_shape(
      const hpc::ResourceRequest& request);

  SchedulerPolicy policy_;
  hpc::ResourcePool& pool_;
  PlaceFn place_;
  std::vector<Shape> shapes_;
  std::size_t waiting_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t pass_ = 0;
  std::uint64_t attempts_ = 0;
};

}  // namespace impress::rp
