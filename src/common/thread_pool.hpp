// Fixed-size worker pool.
//
// Runs a threaded session's due callbacks (real concurrency for
// tests/examples) and a handful of data-parallel helpers. Task submission
// returns a std::future so callers can join on individual results;
// `wait_idle` provides a barrier over everything submitted so far.

#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/lockdep.hpp"

namespace impress::common {

class ThreadPool {
 public:
  /// Spawns `threads` workers (at least 1; 0 selects hardware concurrency).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a callable; returns a future for its result. Throws
  /// std::runtime_error if the pool is already shut down.
  template <typename F, typename... Args>
  auto submit(F&& f, Args&&... args)
      -> std::future<std::invoke_result_t<F, Args...>> {
    using R = std::invoke_result_t<F, Args...>;
    auto task = std::make_shared<std::packaged_task<R()>>(
        [fn = std::forward<F>(f),
         ... as = std::forward<Args>(args)]() mutable {
          return std::invoke(std::move(fn), std::move(as)...);
        });
    std::future<R> fut = task->get_future();
    {
      std::lock_guard lock(mutex_);
      if (stopping_) throw std::runtime_error("ThreadPool: submit after stop");
      ++pending_;
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Block until every task submitted so far has finished executing.
  void wait_idle();

  [[nodiscard]] std::size_t thread_count() const noexcept {
    return workers_.size();
  }

  /// Tasks submitted but not yet finished.
  [[nodiscard]] std::size_t pending() const;

 private:
  void worker_loop();

  mutable TrackedMutex mutex_{"ThreadPool::mutex_"};
  CondVar cv_;
  CondVar idle_cv_;
  std::queue<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::size_t pending_ = 0;
  bool stopping_ = false;
};

/// Run fn(i) for i in [0, n) across the pool, blocking until all complete.
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

}  // namespace impress::common
