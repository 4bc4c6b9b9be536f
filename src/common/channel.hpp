// Bounded multi-producer / multi-consumer channel.
//
// The IMPRESS coordinator communicates with the runtime over exactly two
// channels, mirroring the paper's implementation section: one carries new
// pipeline instances toward the execution backend, the other carries
// completed-task notifications back to the decision-making loop.
//
// Semantics follow Go channels: send blocks when full, receive blocks when
// empty, close() wakes everyone and makes further receives drain-then-fail.

#pragma once

#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "common/lockdep.hpp"

namespace impress::common {

/// Outcome of a non-blocking receive. Distinguishes "nothing available
/// right now" (kEmpty — the channel is still open, a value may yet
/// arrive) from "closed and drained" (kClosed — no value will ever
/// arrive), matching blocking `receive`'s drain-then-fail contract.
enum class RecvStatus { kValue, kEmpty, kClosed };

template <typename T>
class Channel {
 public:
  /// capacity == 0 means unbounded.
  explicit Channel(std::size_t capacity = 0) : capacity_(capacity) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Blocking send. Returns false (and drops the value) if the channel is
  /// closed before space becomes available — including a close() that
  /// lands while the sender is blocked waiting on a full bounded channel.
  bool send(T value) {
    std::unique_lock lock(mutex_);
    not_full_.wait(lock, [&] { return closed_ || has_space_locked(); });
    if (closed_) return false;
    queue_.push_back(std::move(value));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking send. Returns false if full or closed.
  [[nodiscard]] bool try_send(T value) {
    {
      std::lock_guard lock(mutex_);
      if (closed_ || !has_space_locked()) return false;
      queue_.push_back(std::move(value));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocking receive. Returns nullopt once the channel is closed *and*
  /// drained.
  [[nodiscard]] std::optional<T> receive() {
    std::unique_lock lock(mutex_);
    not_empty_.wait(lock, [&] { return closed_ || !queue_.empty(); });
    if (queue_.empty()) return std::nullopt;
    T v = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return v;
  }

  /// Non-blocking receive, tri-state: kValue moves a value into `out`;
  /// kEmpty means the channel is open but has nothing buffered; kClosed
  /// means closed *and* drained (consistent with `receive` returning
  /// nullopt). Pending values in a closed channel still come out as
  /// kValue — close never loses data.
  [[nodiscard]] RecvStatus try_receive(T& out) {
    std::unique_lock lock(mutex_);
    if (queue_.empty()) return closed_ ? RecvStatus::kClosed : RecvStatus::kEmpty;
    out = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return RecvStatus::kValue;
  }

  /// Non-blocking receive, optional form. nullopt conflates "empty right
  /// now" with "closed and drained"; loops that must terminate on close
  /// should use the tri-state overload (or blocking `receive`) instead.
  [[nodiscard]] std::optional<T> try_receive() {
    std::unique_lock lock(mutex_);
    if (queue_.empty()) return std::nullopt;
    T v = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return v;
  }

  /// Receive with a deadline. Returns nullopt on timeout or closed+drained.
  /// A zero (or negative) timeout degenerates to a lock-and-check; a value
  /// already buffered in a closed channel is still returned.
  template <typename Rep, typename Period>
  [[nodiscard]] std::optional<T> receive_for(
      std::chrono::duration<Rep, Period> timeout) {
    std::unique_lock lock(mutex_);
    if (!not_empty_.wait_for(lock, timeout,
                             [&] { return closed_ || !queue_.empty(); }))
      return std::nullopt;
    if (queue_.empty()) return std::nullopt;
    T v = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return v;
  }

  /// Close the channel: senders fail fast, receivers drain then get
  /// nullopt. Idempotent.
  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard lock(mutex_);
    return closed_;
  }

  /// Snapshot of the queue depth. Advisory only: by the time the caller
  /// acts on it another thread may have sent or received.
  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mutex_);
    return queue_.size();
  }

  /// Advisory emptiness snapshot (see size()). Safe to use only where the
  /// caller is the sole consumer or external synchronization guarantees
  /// quiescence — e.g. the coordinator's campaign_done() check, which runs
  /// on the only thread that drains these channels.
  [[nodiscard]] bool empty() const { return size() == 0; }

 private:
  [[nodiscard]] bool has_space_locked() const {
    return capacity_ == 0 || queue_.size() < capacity_;
  }

  // Mutex first: it guards every member below it. Tracked so lockdep
  // builds catch channel operations nested under other locks.
  mutable TrackedMutex mutex_{"Channel::mutex_"};
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<T> queue_;
  std::size_t capacity_;
  bool closed_ = false;
};

}  // namespace impress::common
