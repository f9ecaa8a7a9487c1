// Property tests for the SoA/SIMD batched classification path: for every
// dispatch level the CPU supports, CacheSim::access_block must be
// bit-identical to driving the same simulator one address at a time —
// across way counts, pow2 and non-pow2 set counts,
// sampling strides, and chunk-boundary remainders (including blocks shorter
// than a vector register).
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "sim/cache.hpp"
#include "sim/simd.hpp"

namespace {

using namespace knl;

std::vector<sim::simd::Level> available_levels() {
  std::vector<sim::simd::Level> levels{sim::simd::Level::kScalar};
  for (const auto level : {sim::simd::Level::kSse2, sim::simd::Level::kAvx2}) {
    if (sim::simd::set_level_for_testing(level) == level) levels.push_back(level);
  }
  sim::simd::reset_level_for_testing();
  return levels;
}

/// RAII: force a dispatch level for one scope, restore default after.
struct ScopedLevel {
  explicit ScopedLevel(sim::simd::Level level) {
    EXPECT_EQ(sim::simd::set_level_for_testing(level), level);
  }
  ~ScopedLevel() { sim::simd::reset_level_for_testing(); }
};

/// Mixed address stream: random lines over a bounded footprint interleaved
/// with short sequential runs, so blocks contain hits, misses, evictions,
/// and MRU-repeat patterns.
std::vector<std::uint64_t> make_addresses(std::size_t n, std::uint64_t footprint,
                                          std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> addrs;
  addrs.reserve(n);
  while (addrs.size() < n) {
    const std::uint64_t base = rng() % footprint;
    const std::size_t run = 1 + static_cast<std::size_t>(rng() % 7);
    for (std::size_t i = 0; i < run && addrs.size() < n; ++i) {
      addrs.push_back(base + i * 64);
    }
  }
  return addrs;
}

/// Drive `reference` per-address and `batched` via access_block over the same
/// stream; every observable (block stats, cumulative stats, residency) must
/// match exactly.
void expect_block_matches_reference(const sim::CacheConfig& config,
                                    const std::vector<std::uint64_t>& addrs) {
  sim::CacheSim reference(config);
  sim::CacheSim batched(config);

  std::uint64_t ref_hits = 0;
  for (const auto addr : addrs) ref_hits += reference.access(addr) ? 1u : 0u;
  const sim::BlockStats block = batched.access_block(addrs);

  EXPECT_EQ(block.sampled, reference.stats().accesses);
  EXPECT_EQ(block.hits, reference.stats().hits);
  EXPECT_EQ(block.misses, reference.stats().misses);
  EXPECT_EQ(batched.stats().accesses, reference.stats().accesses);
  EXPECT_EQ(batched.stats().hits, reference.stats().hits);
  EXPECT_EQ(batched.stats().misses, reference.stats().misses);
  EXPECT_EQ(batched.stats().evictions, reference.stats().evictions);
  EXPECT_EQ(batched.resident_lines(), reference.resident_lines());
  // Unsampled accesses report as hits through access(); cross-check totals.
  EXPECT_EQ(ref_hits - reference.stats().hits, addrs.size() - block.sampled);
}

// Chunk-boundary remainders: straddle the SoA chunk (1024) and the replay
// classify chunk (4096), plus blocks shorter than any vector width.
const std::size_t kBlockSizes[] = {0, 1, 2, 3, 5, 7, 1023, 1024, 1025, 4097};

TEST(CacheSimdProperty, BlockMatchesPerAddressAcrossLevelsAndWays) {
  for (const auto level : available_levels()) {
    ScopedLevel scoped(level);
    for (const int ways : {1, 2, 4, 8, 16, 32}) {
      const sim::CacheConfig config{
          .capacity_bytes = std::uint64_t{64} * 64 * static_cast<std::uint64_t>(ways),
          .line_bytes = 64,
          .ways = ways,
          .sample_every = 1};  // 64 sets (pow2) -> SoA path for ways <= 16
      for (const std::size_t n : kBlockSizes) {
        SCOPED_TRACE(testing::Message() << "level=" << sim::simd::level_name(level)
                                        << " ways=" << ways << " n=" << n);
        expect_block_matches_reference(config,
                                       make_addresses(n, 16ull << 10, 7 + n));
      }
    }
  }
}

TEST(CacheSimdProperty, SampledBlockMatchesPerAddress) {
  for (const auto level : available_levels()) {
    ScopedLevel scoped(level);
    for (const int ways : {1, 4}) {
      // 4096 sets; pow2 strides ride the SIMD skip-scan, the non-pow2 stride
      // falls back to the scalar division path — both must match exactly.
      for (const std::uint64_t sample : {std::uint64_t{3}, std::uint64_t{4},
                                         std::uint64_t{256}}) {
        const sim::CacheConfig config{
            .capacity_bytes =
                std::uint64_t{4096} * 64 * static_cast<std::uint64_t>(ways),
            .line_bytes = 64,
            .ways = ways,
            .sample_every = sample};
        for (const std::size_t n : {std::size_t{1}, std::size_t{1025},
                                    std::size_t{4097}}) {
          SCOPED_TRACE(testing::Message()
                       << "level=" << sim::simd::level_name(level) << " ways=" << ways
                       << " sample=" << sample << " n=" << n);
          expect_block_matches_reference(config,
                                         make_addresses(n, 8ull << 20, 23 + n));
        }
      }
    }
  }
}

TEST(CacheSimdProperty, NonPow2SetCountMatchesPerAddress) {
  for (const auto level : available_levels()) {
    ScopedLevel scoped(level);
    for (const int ways : {1, 8}) {
      // 12 sets: exercises the division/modulo scalar fallback.
      const sim::CacheConfig config{
          .capacity_bytes = std::uint64_t{12} * 64 * static_cast<std::uint64_t>(ways),
          .line_bytes = 64,
          .ways = ways,
          .sample_every = 1};
      for (const std::size_t n : {std::size_t{3}, std::size_t{1025}}) {
        SCOPED_TRACE(testing::Message() << "level=" << sim::simd::level_name(level)
                                        << " ways=" << ways << " n=" << n);
        expect_block_matches_reference(config, make_addresses(n, 4ull << 10, 31 + n));
      }
    }
  }
}

TEST(CacheSimdProperty, DecomposeKernelsMatchScalarReference) {
  constexpr unsigned kLineShift = 6;
  constexpr std::uint64_t kSetMask = (1u << 9) - 1;  // 512 sets
  constexpr unsigned kSetShift = 9;
  constexpr std::uint64_t kSampleMask = 3;  // sample_every = 4
  constexpr unsigned kSampleShift = 2;

  for (const std::size_t n : kBlockSizes) {
    const auto addrs = make_addresses(n, 1ull << 30, 41 + n);
    // Scalar reference outputs.
    std::vector<std::uint64_t> ref_set(n + 1, ~0ull), ref_tag(n + 1, ~0ull);
    std::vector<std::uint64_t> ref_sset(n + 1, ~0ull), ref_stag(n + 1, ~0ull);
    std::size_t ref_kept = 0;
    {
      ScopedLevel scoped(sim::simd::Level::kScalar);
      sim::simd::decompose_pow2(addrs.data(), n, kLineShift, kSetMask, kSetShift,
                                ref_set.data(), ref_tag.data());
      ref_kept = sim::simd::decompose_pow2_sampled(
          addrs.data(), n, kLineShift, kSetMask, kSetShift, kSampleMask, kSampleShift,
          ref_sset.data(), ref_stag.data());
    }
    for (const auto level : available_levels()) {
      ScopedLevel scoped(level);
      SCOPED_TRACE(testing::Message()
                   << "level=" << sim::simd::level_name(level) << " n=" << n);
      std::vector<std::uint64_t> set(n + 1, ~0ull), tag(n + 1, ~0ull);
      sim::simd::decompose_pow2(addrs.data(), n, kLineShift, kSetMask, kSetShift,
                                set.data(), tag.data());
      EXPECT_EQ(set, ref_set);
      EXPECT_EQ(tag, ref_tag);

      std::vector<std::uint64_t> sset(n + 1, ~0ull), stag(n + 1, ~0ull);
      const std::size_t kept = sim::simd::decompose_pow2_sampled(
          addrs.data(), n, kLineShift, kSetMask, kSetShift, kSampleMask, kSampleShift,
          sset.data(), stag.data());
      ASSERT_EQ(kept, ref_kept);
      for (std::size_t i = 0; i < kept; ++i) {
        ASSERT_EQ(sset[i], ref_sset[i]) << "sampled set mismatch at " << i;
        ASSERT_EQ(stag[i], ref_stag[i]) << "sampled tag mismatch at " << i;
      }
    }
  }
}

}  // namespace
