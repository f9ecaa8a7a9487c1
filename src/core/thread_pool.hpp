// Work-stealing thread pool — the execution substrate of the parallel sweep
// engine (report/sweep.hpp) and of any other embarrassingly-parallel grid in
// the library. The query service does not use it: PlacementService runs each
// query on the calling thread behind a slot gate, because a hand-off to a
// worker and back cost more than a /placement query computes.
//
// Design: each worker owns a deque guarded by its own mutex. Submission
// round-robins tasks across the deques; a worker pops from the front of its
// own deque and, when that runs dry, steals from the back of a sibling's —
// the classic Chase-Lev discipline (implemented with locks, not lock-free
// buffers). Queue overhead is not noise: a sweep cell evaluates in a few
// microseconds (perfbench's `sweep.cell_us`), so a submit() and future
// hand-off per cell is a visible share of the cell's cost.
// Tasks are arbitrary callables; submit() returns a std::future carrying the
// task's result or exception.
//
// Destruction is graceful: the destructor stops intake, drains every queued
// task, and joins the workers — no submitted future is ever abandoned.
//
// On top of the pool sit the data-parallel helpers used by the threaded
// workload executors (src/workloads): parallel_for / parallel_reduce over an
// index range, chunked by a caller-chosen grain. Chunk boundaries depend only
// on the range and the grain — never on the worker count — and reductions
// combine chunk results in ascending chunk order, so any floating-point
// result is bit-identical for 1, 2 or N workers (only the wall time changes).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
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

/// One half-open chunk of an index range, as produced by split_range.
struct ChunkRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Deterministic chunking of [begin, end): consecutive chunks of `grain`
/// indices each (the last chunk holds the remainder). The decomposition is a
/// pure function of the range and the grain, which is the property every
/// chunk-ordered reduction below relies on for worker-count independence.
/// Throws std::invalid_argument for grain == 0; an empty range yields no
/// chunks.
[[nodiscard]] std::vector<ChunkRange> split_range(std::size_t begin, std::size_t end,
                                                  std::size_t grain);

/// Run `body(chunk_begin, chunk_end)` over every chunk of [begin, end) on the
/// pool, blocking until all chunks finish. A single-chunk range runs inline on
/// the calling thread (no pool round-trip). If any chunk throws, every other
/// chunk still runs to completion and the exception of the lowest-indexed
/// failing chunk is rethrown — deterministic for any worker count.
///
/// Call from outside the pool only: the caller blocks on chunk futures, so a
/// worker invoking this on its own pool can deadlock.
template <typename Body>
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end, std::size_t grain,
                  Body&& body) {
  const std::vector<ChunkRange> chunks = split_range(begin, end, grain);
  if (chunks.empty()) return;
  if (chunks.size() == 1) {
    body(chunks[0].begin, chunks[0].end);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(chunks.size());
  for (const ChunkRange& chunk : chunks) {
    futures.push_back(pool.submit([&body, chunk] { body(chunk.begin, chunk.end); }));
  }
  std::exception_ptr first_error;
  for (auto& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

/// Deterministic chunked reduction: evaluates `map(chunk_begin, chunk_end)`
/// for every chunk on the pool, then folds the per-chunk results with
/// `combine` in ascending chunk order starting from `init`. Because both the
/// chunk boundaries and the combine order are independent of the worker
/// count, floating-point reductions are bit-identical for any pool size.
/// Exceptions behave as in parallel_for.
template <typename T, typename Map, typename Combine>
[[nodiscard]] T parallel_reduce(ThreadPool& pool, std::size_t begin, std::size_t end,
                                std::size_t grain, T init, Map&& map, Combine&& combine) {
  const std::vector<ChunkRange> chunks = split_range(begin, end, grain);
  if (chunks.empty()) return init;
  if (chunks.size() == 1) {
    return combine(std::move(init), map(chunks[0].begin, chunks[0].end));
  }
  std::vector<std::future<T>> futures;
  futures.reserve(chunks.size());
  for (const ChunkRange& chunk : chunks) {
    futures.push_back(pool.submit([&map, chunk] { return map(chunk.begin, chunk.end); }));
  }
  T acc = std::move(init);
  std::exception_ptr first_error;
  for (auto& future : futures) {
    try {
      acc = combine(std::move(acc), future.get());
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return acc;
}

}  // namespace knl::core
