// Sharded LRU SweepCache: capacity bound under contention, request
// coalescing, LRU recency, schema-version fingerprinting and persistence
// header rejection.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/fault/error.hpp"
#include "core/machine_config.hpp"
#include "report/sweep.hpp"

namespace knl::report {
namespace {

RunResult result_for(double seconds) {
  RunResult r;
  r.seconds = seconds;
  r.achieved_bw_gbs = seconds * 2.0;
  return r;
}

SweepKey key_for(std::uint64_t n) {
  return SweepKey{n, ~n, MemConfig::DRAM, static_cast<int>(n % 64)};
}

/// Reset the process-wide cache around every test: these tests share the
/// singleton with the sweep-engine tests in the same binary.
class SweepCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SweepCache::instance().clear();
    SweepCache::instance().set_capacity(SweepCache::kDefaultCapacity);
    SweepCache::instance().reset_stats();
  }
  void TearDown() override { SetUp(); }
};

TEST_F(SweepCacheTest, StoreLookupRoundTrip) {
  auto& cache = SweepCache::instance();
  const SweepKey key = key_for(1);
  EXPECT_FALSE(cache.lookup(key).has_value());
  cache.store(key, result_for(1.5));
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->seconds, 1.5);

  const SweepCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.shards, SweepCache::kShardCount);
}

TEST_F(SweepCacheTest, CapacityBoundHoldsUnderContention) {
  auto& cache = SweepCache::instance();
  const std::size_t capacity = SweepCache::kShardCount * 4;
  cache.set_capacity(capacity);
  EXPECT_EQ(cache.capacity(), capacity);

  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        const std::uint64_t n =
            static_cast<std::uint64_t>(t) * kPerThread + i;
        cache.store(key_for(n), result_for(static_cast<double>(n)));
        // The bound must hold at every instant, not just at the end.
        EXPECT_LE(cache.size(), capacity);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_LE(cache.size(), capacity);
  const SweepCacheStats stats = cache.stats();
  EXPECT_EQ(stats.inserts, kThreads * kPerThread);
  EXPECT_GE(stats.evictions, kThreads * kPerThread - capacity);
  EXPECT_EQ(stats.entries, cache.size());
}

TEST_F(SweepCacheTest, LookupRefreshesRecency) {
  auto& cache = SweepCache::instance();
  // Two entries per shard; craft three keys that land on one shard so the
  // LRU order inside that shard is fully determined.
  cache.set_capacity(SweepCache::kShardCount * 2);
  const auto shard_of = [](const SweepKey& key) {
    return (SweepKeyHash{}(key) >> 48) & (SweepCache::kShardCount - 1);
  };
  std::vector<SweepKey> same_shard;
  for (std::uint64_t n = 0; same_shard.size() < 3; ++n) {
    const SweepKey key = key_for(n);
    if (shard_of(key) == 0) same_shard.push_back(key);
  }

  cache.store(same_shard[0], result_for(0.0));
  cache.store(same_shard[1], result_for(1.0));
  // Touch [0]: it becomes most-recent, so the next insert evicts [1].
  ASSERT_TRUE(cache.lookup(same_shard[0]).has_value());
  cache.store(same_shard[2], result_for(2.0));

  EXPECT_TRUE(cache.lookup(same_shard[0]).has_value());
  EXPECT_FALSE(cache.lookup(same_shard[1]).has_value());
  EXPECT_TRUE(cache.lookup(same_shard[2]).has_value());
}

TEST_F(SweepCacheTest, CoalescedHerdComputesExactlyOnce) {
  auto& cache = SweepCache::instance();
  const SweepKey key = key_for(42);
  constexpr std::size_t kThreads = 8;

  std::atomic<int> computations{0};
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> threads;
  std::vector<RunResult> results(kThreads);
  // One byte per thread: std::vector<bool> packs the flags into shared
  // words, so concurrent writes to neighbouring flags race and lose updates.
  std::vector<char> hits(kThreads, 0);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      bool hit = false;
      results[t] = cache.fetch_or_compute(
          key,
          [&] {
            computations.fetch_add(1);
            // Hold the herd long enough that late arrivals find the
            // in-flight entry rather than the stored result.
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            return result_for(7.0);
          },
          &hit);
      hits[t] = hit;
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(computations.load(), 1);
  std::size_t misses = 0;
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(results[t].seconds, 7.0);
    if (!hits[t]) ++misses;
  }
  // Exactly one caller reports having computed.
  EXPECT_EQ(misses, 1u);
  const SweepCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.coalesced + stats.hits, kThreads - 1);
}

TEST_F(SweepCacheTest, CoalescedHerdSharesException) {
  auto& cache = SweepCache::instance();
  const SweepKey key = key_for(43);

  std::atomic<int> attempts{0};
  EXPECT_THROW(
      (void)cache.fetch_or_compute(key,
                                   [&]() -> RunResult {
                                     attempts.fetch_add(1);
                                     throw Error::transient("test/boom", "boom");
                                   }),
      Error);
  // The failed in-flight entry is gone: the next caller recomputes.
  const RunResult r = cache.fetch_or_compute(key, [&] {
    attempts.fetch_add(1);
    return result_for(3.0);
  });
  EXPECT_EQ(attempts.load(), 2);
  EXPECT_EQ(r.seconds, 3.0);
  EXPECT_TRUE(cache.lookup(key).has_value());
}

TEST_F(SweepCacheTest, SetCapacityEvictsDownToBound) {
  auto& cache = SweepCache::instance();
  for (std::uint64_t n = 0; n < 256; ++n) {
    cache.store(key_for(n), result_for(static_cast<double>(n)));
  }
  EXPECT_EQ(cache.size(), 256u);
  cache.set_capacity(SweepCache::kShardCount);
  EXPECT_LE(cache.size(), SweepCache::kShardCount);
  // Rounded up to a multiple of the shard count, never zero.
  cache.set_capacity(1);
  EXPECT_EQ(cache.capacity(), SweepCache::kShardCount);
}

TEST_F(SweepCacheTest, SaveLoadRoundTripsEntries) {
  auto& cache = SweepCache::instance();
  for (std::uint64_t n = 0; n < 10; ++n) {
    cache.store(key_for(n), result_for(0.1 * static_cast<double>(n)));
  }
  const std::string text = cache.serialize();
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_TRUE(cache.deserialize(text));
  EXPECT_EQ(cache.size(), 10u);
  const auto hit = cache.lookup(key_for(3));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->seconds, 0.1 * 3.0);
}

TEST_F(SweepCacheTest, LoadRejectsForeignSchemaHeader) {
  auto& cache = SweepCache::instance();
  cache.store(key_for(1), result_for(1.0));
  const std::string text = cache.serialize();

  // Rewrite the header as if a binary with another machine schema wrote it.
  const std::size_t eol = text.find('\n');
  ASSERT_NE(eol, std::string::npos);
  ASSERT_NE(text.substr(0, eol).find("machine-schema"), std::string::npos);
  const std::string foreign = "knlmem-sweep-cache 2 machine-schema 9999" + text.substr(eol);

  cache.clear();
  EXPECT_FALSE(cache.deserialize(foreign));  // benign cold start
  EXPECT_EQ(cache.size(), 0u);
}

// Regression (the small-fix satellite): the machine fingerprint must cover
// the schema version, so bumping it invalidates every cached entry even
// when the raw parameter bytes are unchanged.
TEST_F(SweepCacheTest, FingerprintCoversSchemaVersion) {
  MachineConfig config = MachineConfig::knl7210();
  const std::uint64_t before = config.fingerprint();
  config.schema_version = kMachineSchemaVersion + 1;
  EXPECT_NE(config.fingerprint(), before);
}

TEST_F(SweepCacheTest, ResetStatsClearsCountersNotEntries) {
  auto& cache = SweepCache::instance();
  cache.store(key_for(1), result_for(1.0));
  (void)cache.lookup(key_for(1));
  cache.reset_stats();
  const SweepCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.inserts, 0u);
  EXPECT_EQ(stats.entries, 1u);  // gauge, not a counter
}

}  // namespace
}  // namespace knl::report
