// Sharded LRU SweepCache: capacity bound under contention, request
// coalescing and LRU recency on both cache sides, schema-version
// fingerprinting, and persistence header and line rejection.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/fault/error.hpp"
#include "core/machine_config.hpp"
#include "report/sweep.hpp"
#include "sim/reuse_profile.hpp"

namespace knl::report {
namespace {

RunResult result_for(double seconds) {
  RunResult r;
  r.seconds = seconds;
  r.achieved_bw_gbs = seconds * 2.0;
  return r;
}

SweepKey key_for(std::uint64_t n) {
  return SweepKey{n, ~n, MemConfig::DRAM, static_cast<int>(n % 64) + 1};
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

// Regression: deserialize() once cast the parsed int config straight to the
// uint8_t-backed MemConfig (256 loaded as DRAM, 3..255 as no enumerator) and
// accepted negative thread counts. Such lines are skipped like any malformed
// line; the well-formed one still loads.
TEST_F(SweepCacheTest, LoadSkipsKeysSerializeNeverWrites) {
  auto& cache = SweepCache::instance();
  const auto line = [](const char* config, const char* threads) {
    return std::string("0000000000000001 fffffffffffffffe ") + config + " " + threads +
           " 1 0x1p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 -\n";
  };
  const std::string text = cache.serialize() + line("256", "64") + line("3", "64") +
                           line("255", "64") + line("-1", "64") + line("1", "-4") +
                           line("2", "64");
  EXPECT_TRUE(cache.deserialize(text));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.lookup(SweepKey{1, ~1ull, MemConfig::CacheMode, 64}).has_value());
  EXPECT_FALSE(cache.lookup(SweepKey{1, ~1ull, MemConfig::DRAM, 64}).has_value());
}

// Regression: the skip rule once let a thread count of 0 through, although
// no RunConfig with 0 threads is valid. Such a line is skipped; the one
// beside it still loads.
TEST_F(SweepCacheTest, LoadSkipsZeroThreadLines) {
  auto& cache = SweepCache::instance();
  const auto line = [](const char* threads) {
    return std::string("0000000000000001 fffffffffffffffe 0 ") + threads +
           " 1 0x1p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 -\n";
  };
  EXPECT_TRUE(cache.deserialize(cache.serialize() + line("0") + line("1")));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.lookup(SweepKey{1, ~1ull, MemConfig::DRAM, 0}).has_value());
  EXPECT_TRUE(cache.lookup(SweepKey{1, ~1ull, MemConfig::DRAM, 1}).has_value());
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

// ---------------------------------------------------------------------------
// Coalescing and LRU cases, run on both sides of the cache: RunResults and
// reuse-distance profiles.
// ---------------------------------------------------------------------------
using Compute = std::function<std::uint64_t()>;

/// One side's counters, read from SweepCacheStats.
struct SideCounters {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t coalesced = 0;
  std::size_t evictions = 0;
  std::size_t inserts = 0;
  std::size_t entries = 0;
  std::size_t capacity = 0;
};

/// One side of the SweepCache behind the same calls. Key `n` maps to a
/// distinct key of that side; a value is a token the compute callback
/// chooses and the cached entry carries back.
struct CacheSide {
  const char* name;
  /// Entries per shard once configure() ran.
  std::size_t shard_bound;
  void (*configure)();
  std::size_t (*shard_of)(std::uint64_t n);
  std::uint64_t (*fetch)(std::uint64_t n, const Compute& compute, bool* hit);
  bool (*resident)(std::uint64_t n);  ///< lookup: refreshes recency on a hit
  SideCounters (*counters)();
};

void PrintTo(const CacheSide& side, std::ostream* os) { *os << side.name; }

ProfileKey profile_key_for(std::uint64_t n) {
  return ProfileKey{n, ~n, static_cast<int>(n % 64), n * 3};
}

const CacheSide kResultSide{
    "Results",
    2,
    [] { SweepCache::instance().set_capacity(SweepCache::kShardCount * 2); },
    [](std::uint64_t n) -> std::size_t {
      return (SweepKeyHash{}(key_for(n)) >> 48) & (SweepCache::kShardCount - 1);
    },
    [](std::uint64_t n, const Compute& compute, bool* hit) {
      const RunResult r = SweepCache::instance().fetch_or_compute(
          key_for(n), [&] { return result_for(static_cast<double>(compute())); }, hit);
      return static_cast<std::uint64_t>(r.seconds);
    },
    [](std::uint64_t n) { return SweepCache::instance().lookup(key_for(n)).has_value(); },
    [] {
      const SweepCacheStats s = SweepCache::instance().stats();
      return SideCounters{s.hits,    s.misses,  s.coalesced, s.evictions,
                          s.inserts, s.entries, s.capacity};
    },
};

/// The profile side has a fixed bound (kDefaultProfileCapacity) and no
/// store(); the token rides in the profile's max_depth.
const CacheSide kProfileSide{
    "Profiles",
    SweepCache::kDefaultProfileCapacity / SweepCache::kShardCount,
    [] {},
    [](std::uint64_t n) -> std::size_t {
      return (ProfileKeyHash{}(profile_key_for(n)) >> 48) & (SweepCache::kShardCount - 1);
    },
    [](std::uint64_t n, const Compute& compute, bool* hit) {
      const SweepCache::ProfilePtr p = SweepCache::instance().fetch_or_compute_profile(
          profile_key_for(n),
          [&] {
            return std::make_shared<const sim::ReuseProfile>(
                sim::ReuseProfileConfig{.max_depth = compute()});
          },
          hit);
      return p->config().max_depth;
    },
    [](std::uint64_t n) {
      return SweepCache::instance().lookup_profile(profile_key_for(n)) != nullptr;
    },
    [] {
      const SweepCacheStats s = SweepCache::instance().stats();
      return SideCounters{s.profile_hits,      s.profile_misses,  s.profile_coalesced,
                          s.profile_evictions, s.profile_inserts, s.profile_entries,
                          s.profile_capacity};
    },
};

class SweepCacheSideTest : public SweepCacheTest,
                           public ::testing::WithParamInterface<CacheSide> {
 protected:
  void SetUp() override {
    SweepCacheTest::SetUp();
    GetParam().configure();
  }
};

TEST_P(SweepCacheSideTest, CoalescedHerdComputesExactlyOnce) {
  const CacheSide& side = GetParam();
  constexpr std::size_t kThreads = 8;

  std::atomic<int> computations{0};
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> threads;
  std::vector<std::uint64_t> tokens(kThreads);
  // One byte per thread: std::vector<bool> packs the flags into shared
  // words, so concurrent writes to neighbouring flags race and lose updates.
  std::vector<char> hits(kThreads, 0);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      bool hit = false;
      tokens[t] = side.fetch(
          42,
          [&] {
            computations.fetch_add(1);
            // Hold the herd long enough that late arrivals find the
            // in-flight entry rather than the stored result.
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            return std::uint64_t{7};
          },
          &hit);
      hits[t] = hit;
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(computations.load(), 1);
  std::size_t misses = 0;
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(tokens[t], 7u);
    if (!hits[t]) ++misses;
  }
  // Exactly one caller reports having computed.
  EXPECT_EQ(misses, 1u);
  const SideCounters counters = side.counters();
  EXPECT_EQ(counters.misses, 1u);
  EXPECT_EQ(counters.coalesced + counters.hits, kThreads - 1);
}

TEST_P(SweepCacheSideTest, CoalescedHerdSharesException) {
  const CacheSide& side = GetParam();
  std::atomic<int> attempts{0};
  EXPECT_THROW((void)side.fetch(
                   43,
                   [&]() -> std::uint64_t {
                     attempts.fetch_add(1);
                     throw Error::transient("test/boom", "boom");
                   },
                   nullptr),
               Error);
  // The failed in-flight entry is gone: the next caller recomputes.
  const std::uint64_t token = side.fetch(
      43,
      [&] {
        attempts.fetch_add(1);
        return std::uint64_t{3};
      },
      nullptr);
  EXPECT_EQ(attempts.load(), 2);
  EXPECT_EQ(token, 3u);
  EXPECT_TRUE(side.resident(43));
}

TEST_P(SweepCacheSideTest, LookupRefreshesRecency) {
  const CacheSide& side = GetParam();
  // Fill one shard to its bound, touch the oldest entry, then insert one
  // more: the LRU order inside the shard is fully determined.
  std::vector<std::uint64_t> same_shard;
  for (std::uint64_t n = 0; same_shard.size() < side.shard_bound + 1; ++n) {
    if (side.shard_of(n) == 0) same_shard.push_back(n);
  }
  for (std::size_t i = 0; i < side.shard_bound; ++i) {
    (void)side.fetch(same_shard[i], [] { return std::uint64_t{1}; }, nullptr);
  }
  // Touch [0]: it becomes most-recent, so the next insert evicts [1].
  ASSERT_TRUE(side.resident(same_shard[0]));
  (void)side.fetch(same_shard.back(), [] { return std::uint64_t{1}; }, nullptr);

  EXPECT_EQ(side.counters().evictions, 1u);
  EXPECT_TRUE(side.resident(same_shard[0]));
  EXPECT_FALSE(side.resident(same_shard[1]));
  EXPECT_TRUE(side.resident(same_shard.back()));
}

TEST_P(SweepCacheSideTest, BoundHoldsPastCapacity) {
  const CacheSide& side = GetParam();
  const SideCounters before = side.counters();
  EXPECT_EQ(before.capacity, side.shard_bound * SweepCache::kShardCount);

  const std::uint64_t keys = 4 * before.capacity;
  for (std::uint64_t n = 0; n < keys; ++n) {
    (void)side.fetch(n, [n] { return n + 1; }, nullptr);
  }
  const SideCounters after = side.counters();
  EXPECT_EQ(after.inserts, keys);
  EXPECT_EQ(after.misses, keys);
  EXPECT_LE(after.entries, after.capacity);
  EXPECT_EQ(after.entries + after.evictions, keys);  // no key was stored twice
  EXPECT_TRUE(side.resident(keys - 1));              // the newest always stays
}

INSTANTIATE_TEST_SUITE_P(BothSides, SweepCacheSideTest,
                         ::testing::Values(kResultSide, kProfileSide),
                         [](const ::testing::TestParamInfo<CacheSide>& side) {
                           return std::string(side.param.name);
                         });

}  // namespace
}  // namespace knl::report
