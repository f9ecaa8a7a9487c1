// Work-stealing thread pool — the execution substrate of the repro
// pipeline's experiment scheduler (repro/pipeline.cpp: one task per
// experiment) and of the sharded reuse-distance pass
// (sim/reuse_profile.cpp). The query service does not use it:
// PlacementService runs each query on the calling thread behind a slot
// gate, because a hand-off to a worker and back cost more than a
// /placement query computes.
//
// Design: each worker owns a deque guarded by its own mutex. Submission
// round-robins tasks across the deques; a worker pops from the front of its
// own deque and, when that runs dry, steals from the back of a sibling's —
// the classic Chase-Lev discipline (implemented with locks, not lock-free
// buffers). Queue overhead is not noise: a sweep cell evaluates in a few
// microseconds (perfbench's `sweep.cell_us`), so a submit() and future
// hand-off per cell is a visible share of the cell's cost — which is why
// the repro pipeline submits whole experiments and sweeps run serially.
// Tasks are arbitrary callables; submit() returns a std::future carrying the
// task's result or exception.
//
// Destruction is graceful: the destructor stops intake, drains every queued
// task, and joins the workers — no submitted future is ever abandoned.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/fault/fault_injection.hpp"

namespace knl::core {

class ThreadPool {
 public:
  /// Start `threads` workers; 0 means one per hardware thread (at least 1).
  explicit ThreadPool(unsigned threads = 0);

  /// Drains all queued tasks, then joins the workers. Futures obtained from
  /// submit() are guaranteed to become ready before the destructor returns.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Enqueue `fn` for execution on some worker. Returns a future that
  /// yields fn's return value, or rethrows the exception fn threw.
  /// Thread-safe: any thread (including a worker) may submit.
  ///
  /// Task dispatch is a fault-injection site ("thread-pool-dispatch",
  /// keyed by this pool's submission sequence number — deterministic,
  /// since submission order is the caller's program order). An injected
  /// fault fires inside the task wrapper, so it lands in the returned
  /// future, never in a worker loop; when no plan is armed the check is
  /// one relaxed atomic load.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    const std::uint64_t seq = submit_seq_.fetch_add(1, std::memory_order_relaxed);
    std::packaged_task<R()> task(
        [fn = std::forward<F>(fn), seq]() mutable -> R {
          fault::maybe_inject(fault::kSiteThreadPoolDispatch, seq);
          return fn();
        });
    std::future<R> future = task.get_future();
    // packaged_task<R()>::operator() returns void (the result lands in the
    // shared state), so it slots directly into the type-erased queue entry.
    enqueue(Task(std::move(task)));
    return future;
  }

  /// std::thread::hardware_concurrency, clamped to at least 1 (the standard
  /// allows it to return 0 when the count is unknowable).
  [[nodiscard]] static unsigned hardware_threads() noexcept;

 private:
  using Task = std::packaged_task<void()>;

  struct Worker {
    std::mutex mutex;
    std::deque<Task> queue;
    std::thread thread;
  };

  void enqueue(Task task);
  /// Pop from our own front, else steal from a sibling's back.
  bool acquire(std::size_t self, Task& out);
  void worker_loop(std::size_t index);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<std::uint64_t> submit_seq_{0};  // fault-injection dispatch key
  std::atomic<std::size_t> next_{0};    // round-robin submission cursor
  std::atomic<std::size_t> queued_{0};  // tasks enqueued but not yet popped
  std::atomic<bool> stop_{false};
  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
};

}  // namespace knl::core
