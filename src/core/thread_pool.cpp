#include "core/thread_pool.hpp"

#include <algorithm>

namespace knl::core {

unsigned ThreadPool::hardware_threads() noexcept {
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = hardware_threads();
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (unsigned i = 0; i < threads; ++i) {
    workers_[i]->thread = std::thread([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(sleep_mutex_);
    stop_.store(true, std::memory_order_release);
  }
  sleep_cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

void ThreadPool::enqueue(Task task) {
  const std::size_t target =
      next_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
  {
    const std::lock_guard<std::mutex> lock(workers_[target]->mutex);
    workers_[target]->queue.push_back(std::move(task));
  }
  {
    // Publish under the sleep mutex: a worker between its predicate check
    // and its wait would otherwise miss this notify and sleep on a
    // non-empty queue while the submitter blocks on the future.
    const std::lock_guard<std::mutex> lock(sleep_mutex_);
    queued_.fetch_add(1, std::memory_order_release);
  }
  sleep_cv_.notify_one();
}

bool ThreadPool::acquire(std::size_t self, Task& out) {
  // Own queue first (front: submission order for cache-friendly locality)...
  {
    Worker& own = *workers_[self];
    const std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.queue.empty()) {
      out = std::move(own.queue.front());
      own.queue.pop_front();
      queued_.fetch_sub(1, std::memory_order_acq_rel);
      return true;
    }
  }
  // ...then steal from the back of a sibling's.
  for (std::size_t step = 1; step < workers_.size(); ++step) {
    Worker& victim = *workers_[(self + step) % workers_.size()];
    const std::lock_guard<std::mutex> lock(victim.mutex);
    if (!victim.queue.empty()) {
      out = std::move(victim.queue.back());
      victim.queue.pop_back();
      queued_.fetch_sub(1, std::memory_order_acq_rel);
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t index) {
  for (;;) {
    Task task;
    if (acquire(index, task)) {
      task();
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    sleep_cv_.wait(lock, [this] {
      return stop_.load(std::memory_order_acquire) ||
             queued_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_acquire) &&
        queued_.load(std::memory_order_acquire) == 0) {
      return;  // drained: every submitted future is ready
    }
  }
}

}  // namespace knl::core
