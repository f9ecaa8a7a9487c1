// Tests for the address-stream generators.
#include "trace/generators.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <set>
#include <vector>

namespace knl::trace {
namespace {

TEST(Generators, SweepVisitsEveryLineInOrder) {
  std::vector<std::uint64_t> addrs;
  generate_sweep(1000, 256, 64, 2, [&](std::uint64_t a) { addrs.push_back(a); });
  ASSERT_EQ(addrs.size(), 8u);
  EXPECT_EQ(addrs[0], 1000u);
  EXPECT_EQ(addrs[3], 1000u + 192);
  EXPECT_EQ(addrs[4], 1000u);  // second sweep restarts
}

TEST(Generators, StridedHonoursStride) {
  std::vector<std::uint64_t> addrs;
  generate_strided(0, 1000, 256, 1, [&](std::uint64_t a) { addrs.push_back(a); });
  ASSERT_EQ(addrs.size(), 4u);
  EXPECT_EQ(addrs[3], 768u);
  EXPECT_THROW((void)generate_strided(0, 100, 0, 1, [](std::uint64_t) {}), std::invalid_argument);
}

TEST(Generators, UniformRandomStaysInRangeAndIsDeterministic) {
  std::vector<std::uint64_t> a1, a2;
  generate_uniform_random(500, 1000, 2000, 9, [&](std::uint64_t a) { a1.push_back(a); });
  generate_uniform_random(500, 1000, 2000, 9, [&](std::uint64_t a) { a2.push_back(a); });
  EXPECT_EQ(a1, a2);  // same seed, same stream
  for (const auto a : a1) {
    EXPECT_GE(a, 500u);
    EXPECT_LT(a, 1500u);
  }
  std::vector<std::uint64_t> a3;
  generate_uniform_random(500, 1000, 2000, 10, [&](std::uint64_t a) { a3.push_back(a); });
  EXPECT_NE(a1, a3);  // different seed, different stream
  EXPECT_THROW((void)generate_uniform_random(0, 0, 1, 1, [](std::uint64_t) {}), std::invalid_argument);
}

class ChasePermutationProperty
    : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint64_t>> {};

TEST_P(ChasePermutationProperty, SingleCycleCoveringAllSlots) {
  const auto [n, seed] = GetParam();
  const auto next = build_chase_permutation(n, seed);
  ASSERT_EQ(next.size(), n);
  std::set<std::uint32_t> seen;
  std::uint32_t cur = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_TRUE(seen.insert(cur).second) << "revisited slot before covering all";
    ASSERT_LT(next[cur], n);
    cur = next[cur];
  }
  EXPECT_EQ(cur, 0u) << "walk must close into a single cycle";
  EXPECT_EQ(seen.size(), n);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSeeds, ChasePermutationProperty,
    ::testing::Values(std::pair<std::uint32_t, std::uint64_t>{2, 0},
                      std::pair<std::uint32_t, std::uint64_t>{3, 1},
                      std::pair<std::uint32_t, std::uint64_t>{64, 42},
                      std::pair<std::uint32_t, std::uint64_t>{1000, 7},
                      std::pair<std::uint32_t, std::uint64_t>{4096, 1234}));

TEST(Generators, ChaseReplayFollowsPermutation) {
  const auto next = build_chase_permutation(16, 3);
  std::vector<std::uint64_t> addrs;
  generate_chase(0, next, 64, 5, [&](std::uint64_t a) { addrs.push_back(a); });
  ASSERT_EQ(addrs.size(), 5u);
  EXPECT_EQ(addrs[0], 0u);
  EXPECT_EQ(addrs[1], static_cast<std::uint64_t>(next[0]) * 64);
}

TEST(Generators, ChaseErrors) {
  EXPECT_THROW((void)build_chase_permutation(0, 0), std::invalid_argument);
  EXPECT_THROW((void)build_chase_permutation(1, 0), std::invalid_argument);
  EXPECT_THROW((void)generate_chase(0, {}, 64, 1, [](std::uint64_t) {}), std::invalid_argument);
}

TEST(Generators, ZeroByteRegionsYieldEmptyStreams) {
  // A zero-byte region has no lines to visit: the stream must terminate
  // immediately instead of wrapping forever at offset 0.
  std::size_t visits = 0;
  generate_sweep(0, 0, 64, 5, [&](std::uint64_t) { ++visits; });
  EXPECT_EQ(visits, 0u);
  generate_strided(0, 0, 256, 5, [&](std::uint64_t) { ++visits; });
  EXPECT_EQ(visits, 0u);
  SweepGenerator sweep(0, 0, 64, 5);
  std::uint64_t buffer[8];
  EXPECT_EQ(sweep.next_chunk(buffer, 8), 0u);
}

TEST(Generators, StrideLargerThanRegionVisitsBaseOncePerSweep) {
  std::vector<std::uint64_t> addrs;
  generate_strided(4096, 1000, 2048, 3, [&](std::uint64_t a) { addrs.push_back(a); });
  EXPECT_EQ(addrs, (std::vector<std::uint64_t>{4096, 4096, 4096}));
  // Same for a sweep whose line exceeds the region.
  addrs.clear();
  generate_sweep(0, 100, 256, 2, [&](std::uint64_t a) { addrs.push_back(a); });
  EXPECT_EQ(addrs, (std::vector<std::uint64_t>{0, 0}));
}

// Property: every chunked generator must produce exactly the stream its
// legacy callback adapter produces, independent of chunk capacity.
TEST(Generators, ChunkedMatchesCallbackOnAllGenerators) {
  const auto next = build_chase_permutation(64, 5);
  const auto via_callback = [&](auto&& generate) {
    std::vector<std::uint64_t> addrs;
    generate([&](std::uint64_t a) { addrs.push_back(a); });
    return addrs;
  };
  const auto drain = [](auto& gen, std::size_t capacity) {
    std::vector<std::uint64_t> addrs;
    std::vector<std::uint64_t> buffer(capacity);
    for (std::size_t n; (n = gen.next_chunk(buffer.data(), capacity)) != 0;) {
      addrs.insert(addrs.end(), buffer.begin(), buffer.begin() + static_cast<long>(n));
    }
    return addrs;
  };
  // Odd chunk capacities deliberately misaligned with sweep boundaries.
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{7}, kAddressChunk}) {
    SweepGenerator sweep(128, 1000, 64, 3);
    EXPECT_EQ(drain(sweep, capacity), via_callback([&](auto&& v) {
                return generate_sweep(128, 1000, 64, 3, v);
              }));
    StridedGenerator strided(0, 5000, 192, 2);
    EXPECT_EQ(drain(strided, capacity), via_callback([&](auto&& v) {
                return generate_strided(0, 5000, 192, 2, v);
              }));
    // 5000 draws cross Mt19937_64's 312-word blocks at many chunk offsets.
    UniformRandomGenerator random(64, 4096, 5000, 17);
    EXPECT_EQ(drain(random, capacity), via_callback([&](auto&& v) {
                return generate_uniform_random(64, 4096, 5000, 17, v);
              }));
    ChaseGenerator chase(0, next, 64, 200);
    EXPECT_EQ(drain(chase, capacity), via_callback([&](auto&& v) {
                return generate_chase(0, next, 64, 200, v);
              }));
  }
}

TEST(Mt19937_64, MatchesTheStandardsKnownAnswer) {
  // [rand.predef]: the 10000th consecutive invocation of a default-constructed
  // mt19937_64 (seed 5489) produces 9981545732273789042.
  Mt19937_64 rng(5489);
  std::uint64_t x = 0;
  for (int i = 0; i < 10000; ++i) x = rng();
  EXPECT_EQ(x, 9981545732273789042ull);
}

#ifdef __GLIBCXX__
TEST(Mt19937_64, DrawsEqualLibstdcxxUniformIntDistribution) {
  // below() is libstdc++'s uniform_int_distribution algorithm; 2^63 + 1
  // rejects about half the raw draws, exercising the retry loop.
  constexpr std::uint64_t kRanges[] = {1, 3, 1ull << 24, 12345677, (1ull << 63) + 1};
  for (const std::uint64_t seed : {0ull, 9ull, 5489ull, 0x9E3779B97F4A7C15ull}) {
    for (const std::uint64_t range : kRanges) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " range " << range);
      std::mt19937_64 std_rng(seed);
      Mt19937_64 rng(seed);
      std::uniform_int_distribution<std::uint64_t> wide(0, range - 1);
      for (int i = 0; i < 2000; ++i) ASSERT_EQ(rng.below(range), wide(std_rng)) << i;
      // The raw streams stay in step after the draws.
      ASSERT_EQ(rng(), std_rng());
      if (range > std::numeric_limits<std::uint32_t>::max()) continue;
      std::mt19937_64 std_rng32(seed);
      Mt19937_64 rng32(seed);
      std::uniform_int_distribution<std::uint32_t> narrow(
          0, static_cast<std::uint32_t>(range - 1));
      for (int i = 0; i < 2000; ++i) ASSERT_EQ(rng32.below(range), narrow(std_rng32)) << i;
    }
  }
}
#endif

TEST(Generators, CollectAddressesGathersWholeStream) {
  StridedGenerator gen(0, 1024, 256, 2);
  const auto addrs = collect_addresses(gen);
  EXPECT_EQ(addrs.size(), 8u);
  EXPECT_EQ(addrs.front(), 0u);
  EXPECT_EQ(addrs.back(), 768u);
}

}  // namespace
}  // namespace knl::trace
