// Tests for multi-core trace replay: discrete validation of the machine-
// level concurrency/bandwidth claims the analytic model makes.
#include "sim/parallel_replay.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "trace/generators.hpp"

namespace knl::sim {
namespace {

std::vector<std::vector<std::uint64_t>> random_streams(int cores, std::uint64_t footprint,
                                                       std::uint64_t per_core,
                                                       std::uint64_t seed) {
  std::vector<std::vector<std::uint64_t>> streams(static_cast<std::size_t>(cores));
  for (int c = 0; c < cores; ++c) {
    auto& s = streams[static_cast<std::size_t>(c)];
    s.reserve(static_cast<std::size_t>(per_core));
    // Disjoint per-core regions so private caches behave independently.
    const std::uint64_t base = static_cast<std::uint64_t>(c) * footprint;
    trace::generate_uniform_random(base, footprint, per_core,
                                   seed + static_cast<std::uint64_t>(c),
                                   [&](std::uint64_t a) { s.push_back(a); });
  }
  return streams;
}

TEST(ParallelReplay, ThroughputScalesWithCoresUntilCapBinds) {
  // Random line traffic: per-core demand = mshrs*line/lat ~ 5 GB/s; the
  // scaled DDR cap is cores/64*77 GB/s ~ 1.2 GB/s per core, so the budget
  // binds and aggregate bandwidth must sit at the cap, not at demand.
  ParallelReplayConfig cfg;
  cfg.cores = 4;
  ParallelReplay machine(cfg);
  const auto streams = random_streams(4, 32ull << 20, 60000, 3);
  const auto stats = machine.replay(streams);
  EXPECT_GT(stats.memory_accesses, stats.accesses * 9 / 10);
  EXPECT_NEAR(stats.memory_bandwidth_gbs(), machine.bandwidth_cap_gbs(),
              machine.bandwidth_cap_gbs() * 0.1);
  EXPECT_GT(stats.capped_seconds, 0.0);
}

TEST(ParallelReplay, UncappedWhenBudgetGenerous) {
  // Same traffic with the cap left at machine scale: per-core demand is
  // far below it, so throughput follows Little's law per core.
  ParallelReplayConfig cfg;
  cfg.cores = 2;
  cfg.scale_cap_to_cores = false;
  ParallelReplay machine(cfg);
  const auto streams = random_streams(2, 32ull << 20, 60000, 5);
  const auto stats = machine.replay(streams);
  Mesh mesh;
  const double lat = params::kDdr.idle_latency_ns + mesh.directory_latency_ns() +
                     params::kL2LatencyNs;
  const double expected = 2.0 * 12.0 * 64.0 / lat;  // cores * mshrs * line / lat
  EXPECT_NEAR(stats.memory_bandwidth_gbs(), expected, expected * 0.2);
}

TEST(ParallelReplay, MoreCoresMoreAggregateThroughputBelowCap) {
  double prev = 0.0;
  for (const int cores : {1, 2, 4}) {
    ParallelReplayConfig cfg;
    cfg.cores = cores;
    cfg.scale_cap_to_cores = false;
    ParallelReplay machine(cfg);
    const auto stats = machine.replay(random_streams(cores, 16ull << 20, 40000, 7));
    EXPECT_GT(stats.memory_bandwidth_gbs(), prev);
    prev = stats.memory_bandwidth_gbs();
  }
}

TEST(ParallelReplay, HbmCapAdmitsMoreTrafficThanDdr) {
  // The machine-level version of the paper's Fig. 2: same streams, HBM's
  // scaled cap is ~4x DDR's, so capped aggregate bandwidth is ~4x higher.
  const auto streams = random_streams(4, 32ull << 20, 60000, 9);
  ParallelReplayConfig ddr_cfg;
  ddr_cfg.cores = 4;
  ParallelReplayConfig hbm_cfg = ddr_cfg;
  hbm_cfg.node = params::kHbm;
  ParallelReplay ddr(ddr_cfg), hbm(hbm_cfg);
  const double d = ddr.replay(streams).memory_bandwidth_gbs();
  ParallelReplay hbm_machine(hbm_cfg);
  const double h = hbm_machine.replay(streams).memory_bandwidth_gbs();
  EXPECT_GT(h / d, 3.0);
}

TEST(ParallelReplay, CacheResidentStreamsNeverTouchMemory) {
  ParallelReplayConfig cfg;
  cfg.cores = 2;
  ParallelReplay machine(cfg);
  std::vector<std::vector<std::uint64_t>> streams(2);
  for (int c = 0; c < 2; ++c) {
    for (int rep = 0; rep < 4; ++rep) {
      for (std::uint64_t a = 0; a < 16 * 1024; a += 64) {
        streams[static_cast<std::size_t>(c)].push_back(
            static_cast<std::uint64_t>(c) * (1 << 20) + a);
      }
    }
  }
  const auto stats = machine.replay(streams);
  // Only the cold pass misses; everything else is L1-resident.
  EXPECT_LT(stats.memory_accesses, stats.accesses / 3);
}

TEST(ParallelReplay, UnevenStreamsDrainCompletely) {
  ParallelReplayConfig cfg;
  cfg.cores = 3;
  ParallelReplay machine(cfg);
  std::vector<std::vector<std::uint64_t>> streams(3);
  streams[0] = {0, 64, 128};
  streams[1] = {};
  for (std::uint64_t a = 0; a < 100 * 64; a += 64) streams[2].push_back(a);
  const auto stats = machine.replay(streams);
  EXPECT_EQ(stats.accesses, 3u + 0u + 100u);
}

// Every field of the lock-step replay's statistics, pinned on four fixed
// inputs: counters exactly, and the two simulated times by the bit pattern
// of the double, so any change to the order or form of the loop's
// floating-point operations shows up here.
struct PinnedStats {
  std::uint64_t accesses, l1_hits, l2_hits, memory_accesses, tlb_misses, mcdram_hits;
  std::uint64_t seconds_bits, capped_seconds_bits;
};

void expect_pinned(const ParallelReplayStats& got, const PinnedStats& want) {
  EXPECT_EQ(got.accesses, want.accesses);
  EXPECT_EQ(got.l1_hits, want.l1_hits);
  EXPECT_EQ(got.l2_hits, want.l2_hits);
  EXPECT_EQ(got.memory_accesses, want.memory_accesses);
  EXPECT_EQ(got.tlb_misses, want.tlb_misses);
  EXPECT_EQ(got.mcdram_hits, want.mcdram_hits);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.seconds), want.seconds_bits) << got.seconds;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.capped_seconds), want.capped_seconds_bits)
      << got.capped_seconds;
}

TEST(ParallelReplay, LockStepStatsArePinned) {
  {
    ParallelReplayConfig cfg;
    cfg.cores = 4;
    ParallelReplay machine(cfg);
    expect_pinned(machine.replay(random_streams(4, 8ull << 20, 20000, 11)),
                  {80000u, 299u, 3553u, 76148u, 16u, 0u, 0x3f509825a3819877ull,
                   0x3fa2d5225205c109ull});
  }
  {
    ParallelReplayConfig cfg;
    cfg.cores = 3;
    ParallelReplay machine(cfg);
    std::vector<std::vector<std::uint64_t>> streams(3);
    streams[0] = {0, 64, 128};
    streams[1] = {};
    for (std::uint64_t a = 0; a < 500 * 64; a += 64) streams[2].push_back(a);
    expect_pinned(machine.replay(streams), {503u, 0u, 0u, 503u, 2u, 0u,
                                            0x3ee30bfcbee40ef6ull, 0x3effc1b6a61d421dull});
  }
  {
    // Consecutive calls: the second call replays its fresh 3000-long streams
    // from their first entry, on the caches, TLBs and clocks the first left.
    ParallelReplayConfig cfg;
    cfg.cores = 2;
    ParallelReplay machine(cfg);
    expect_pinned(machine.replay(random_streams(2, 4ull << 20, 5000, 21)),
                  {10000u, 68u, 290u, 9642u, 4u, 0u, 0x3f30d124a5c8e1c9ull,
                   0x3f73108ba5a52de9ull});
    const ParallelReplayStats second =
        machine.replay(random_streams(2, 4ull << 20, 3000, 22));
    EXPECT_EQ(second.accesses, 6000u);
    expect_pinned(second, {6000u, 48u, 535u, 5417u, 0u, 0u, 0x3f3a425f80e2a10cull,
                           0x3f6570be26cc70b9ull});
  }
  {
    ParallelReplayConfig cfg;
    cfg.cores = 4;
    cfg.node = params::kHbm;
    ParallelReplay machine(cfg);
    expect_pinned(machine.replay(random_streams(4, 16ull << 20, 10000, 31)),
                  {40000u, 75u, 620u, 39305u, 32u, 0u, 0x3f2383ce6d31a205ull,
                   0x3f1dab17e0284918ull});
  }
}

TEST(ParallelReplay, Validation) {
  ParallelReplayConfig bad;
  bad.cores = 0;
  EXPECT_THROW(ParallelReplay{bad}, std::invalid_argument);
  ParallelReplayConfig bad2;
  bad2.mshrs_per_core = 0;
  EXPECT_THROW(ParallelReplay{bad2}, std::invalid_argument);
  ParallelReplay machine;
  EXPECT_THROW((void)machine.replay({}), std::invalid_argument);  // wrong stream count
}

}  // namespace
}  // namespace knl::sim
