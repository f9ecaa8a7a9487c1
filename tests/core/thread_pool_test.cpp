// Tests for the work-stealing thread pool underlying the parallel sweep
// engine.
#include "core/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <stdexcept>
#include <string>
#include <vector>

namespace knl::core {
namespace {

TEST(ThreadPool, SizeMatchesRequestedThreads) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, ZeroThreadsMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), ThreadPool::hardware_threads());
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, SubmitReturnsTaskResult) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);

  auto s = pool.submit([] { return std::string("knl"); });
  EXPECT_EQ(s.get(), "knl");
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<int>> futures;
  const int n = 200;
  futures.reserve(n);
  for (int i = 0; i < n; ++i) {
    futures.push_back(pool.submit([&counter, i] {
      counter.fetch_add(1, std::memory_order_relaxed);
      return i;
    }));
  }
  for (int i = 0; i < n; ++i) EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i);
  EXPECT_EQ(counter.load(), n);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("cell failed"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  const int n = 64;
  {
    ThreadPool pool(2);
    futures.reserve(n);
    for (int i = 0; i < n; ++i) {
      futures.push_back(
          pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); }));
    }
    // Destructor runs here with most tasks still queued.
  }
  EXPECT_EQ(counter.load(), n);
  for (auto& f : futures) {
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  }
}

TEST(ThreadPool, WorkersCanSubmitWithoutDeadlock) {
  // A task fans out follow-up work from inside a worker (it must not wait on
  // those futures — on a 1-worker pool that would self-deadlock; the drain
  // guarantee is what makes fire-and-forget safe).
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    pool.submit([&] {
        for (int i = 0; i < 8; ++i) {
          pool.submit(
              [&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
        }
      }).get();
  }
  EXPECT_EQ(counter.load(), 8);
}

}  // namespace
}  // namespace knl::core
