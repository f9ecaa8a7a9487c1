// Tests for the parallel sweep engine: determinism across job counts, the
// memoization cache (in-memory and persisted), and the fingerprints the
// cache keys on.
#include <gtest/gtest.h>

#include <string>

#include "report/sweep.hpp"
#include "workloads/registry.hpp"
#include "workloads/stream.hpp"

namespace knl::report {
namespace {

// Exact (bitwise) figure equality: same series, same order, same points.
// The determinism guarantee is bit-identical output, so no tolerance.
void expect_identical(const Figure& a, const Figure& b) {
  ASSERT_EQ(a.series().size(), b.series().size());
  for (std::size_t s = 0; s < a.series().size(); ++s) {
    const Series& sa = a.series()[s];
    const Series& sb = b.series()[s];
    EXPECT_EQ(sa.name, sb.name);
    ASSERT_EQ(sa.points.size(), sb.points.size()) << "series " << sa.name;
    for (std::size_t p = 0; p < sa.points.size(); ++p) {
      EXPECT_EQ(sa.points[p].first, sb.points[p].first) << sa.name << " point " << p;
      EXPECT_EQ(sa.points[p].second, sb.points[p].second) << sa.name << " point " << p;
    }
  }
}

TEST(ParallelSweep, SizesDeterministicAcrossJobCountsForEveryWorkload) {
  Machine machine;
  const std::vector<std::uint64_t> sizes{2ull << 30, 8ull << 30};
  // memoize=false so jobs=8 cannot trivially reuse the jobs=1 results: both
  // runs must simulate every cell and still agree bit-for-bit.
  const SweepOptions serial{.jobs = 1, .memoize = false};
  const SweepOptions parallel{.jobs = 8, .memoize = false};
  for (const auto& entry : workloads::registry()) {
    const SweepRun a = sweep_sizes_run(machine, entry.make, sizes, 64, kAllConfigs,
                                       Figure(entry.info.name, "x", "y"), serial);
    const SweepRun b = sweep_sizes_run(machine, entry.make, sizes, 64, kAllConfigs,
                                       Figure(entry.info.name, "x", "y"), parallel);
    SCOPED_TRACE(entry.info.name);
    expect_identical(a.figure, b.figure);
    EXPECT_EQ(a.stats.cells, sizes.size() * kAllConfigs.size());
    EXPECT_EQ(a.stats.infeasible, b.stats.infeasible);
  }
}

TEST(ParallelSweep, ThreadsDeterministicAcrossJobCounts) {
  Machine machine;
  const workloads::StreamTriad stream(4ull << 30);
  const SweepRun a = sweep_threads_run(machine, stream, {64, 128, 192, 256},
                                       kAllConfigs, Figure("t", "x", "y"),
                                       {.jobs = 1, .memoize = false});
  const SweepRun b = sweep_threads_run(machine, stream, {64, 128, 192, 256},
                                       kAllConfigs, Figure("t", "x", "y"),
                                       {.jobs = 8, .memoize = false});
  expect_identical(a.figure, b.figure);
}

TEST(ParallelSweep, JobsZeroResolvesToHardwareConcurrency) {
  Machine machine;
  const workloads::StreamTriad stream(2ull << 30);
  const SweepRun hw = sweep_threads_run(machine, stream, {64}, kAllConfigs,
                                        Figure("t", "x", "y"),
                                        {.jobs = 0, .memoize = false});
  const SweepRun serial = sweep_threads_run(machine, stream, {64}, kAllConfigs,
                                            Figure("t", "x", "y"),
                                            {.jobs = 1, .memoize = false});
  expect_identical(hw.figure, serial.figure);
}

TEST(ParallelSweep, StatsCountInfeasibleCells) {
  Machine machine;
  const auto factory = [](std::uint64_t bytes) {
    return std::unique_ptr<workloads::Workload>(
        std::make_unique<workloads::StreamTriad>(bytes));
  };
  // 20 GB exceeds MCDRAM capacity: the HBM cell is infeasible.
  const SweepRun run = sweep_sizes_run(machine, factory, {20ull << 30}, 64,
                                       kAllConfigs, Figure("t", "x", "y"),
                                       {.jobs = 1, .memoize = false});
  EXPECT_EQ(run.stats.cells, kAllConfigs.size());
  EXPECT_EQ(run.stats.infeasible, 1u);
  EXPECT_EQ(run.figure.find("HBM"), nullptr);
}

TEST(ParallelSweep, MemoizationHitsOnSecondRun) {
  SweepCache::instance().clear();
  Machine machine;
  const workloads::StreamTriad stream(4ull << 30);
  const SweepRun cold = sweep_threads_run(machine, stream, {64, 128}, kAllConfigs,
                                          Figure("t", "x", "y"), {.jobs = 1});
  EXPECT_EQ(cold.stats.evaluated, cold.stats.cells);
  EXPECT_EQ(cold.stats.cache_hits, 0u);

  const SweepRun warm = sweep_threads_run(machine, stream, {64, 128}, kAllConfigs,
                                          Figure("t", "x", "y"), {.jobs = 1});
  EXPECT_EQ(warm.stats.cache_hits, warm.stats.cells);
  EXPECT_EQ(warm.stats.evaluated, 0u);
  expect_identical(cold.figure, warm.figure);
  SweepCache::instance().clear();
}

TEST(ParallelSweep, CachedRunReportsHitAndReturnsSameResult) {
  SweepCache::instance().clear();
  Machine machine;
  const workloads::StreamTriad stream(2ull << 30);
  const auto profile = stream.profile();
  bool hit = true;
  const RunResult first =
      cached_run(machine, profile, RunConfig{MemConfig::HBM, 64}, &hit);
  EXPECT_FALSE(hit);
  const RunResult second =
      cached_run(machine, profile, RunConfig{MemConfig::HBM, 64}, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(first.seconds, second.seconds);
  EXPECT_EQ(first.achieved_bw_gbs, second.achieved_bw_gbs);
  SweepCache::instance().clear();
}

TEST(ParallelSweep, CacheSaveLoadRoundTripsExactly) {
  SweepCache::instance().clear();
  Machine machine;
  const workloads::StreamTriad small(2ull << 30);
  const workloads::StreamTriad large(20ull << 30);  // infeasible on HBM
  const RunResult r1 =
      cached_run(machine, small.profile(), RunConfig{MemConfig::DRAM, 64});
  const RunResult r2 =
      cached_run(machine, large.profile(), RunConfig{MemConfig::HBM, 64});
  ASSERT_TRUE(r1.feasible);
  ASSERT_FALSE(r2.feasible);

  // The snapshot payload: serialize, drop everything, restore.
  const std::string text = SweepCache::instance().serialize();
  SweepCache::instance().clear();
  ASSERT_EQ(SweepCache::instance().size(), 0u);
  ASSERT_TRUE(SweepCache::instance().deserialize(text));
  EXPECT_EQ(SweepCache::instance().size(), 2u);

  bool hit = false;
  const RunResult l1 =
      cached_run(machine, small.profile(), RunConfig{MemConfig::DRAM, 64}, &hit);
  EXPECT_TRUE(hit);
  // Hex-float serialization: the round trip must be exact, not approximate.
  EXPECT_EQ(l1.seconds, r1.seconds);
  EXPECT_EQ(l1.bytes_from_memory, r1.bytes_from_memory);
  EXPECT_EQ(l1.avg_latency_ns, r1.avg_latency_ns);
  EXPECT_EQ(l1.achieved_bw_gbs, r1.achieved_bw_gbs);

  const RunResult l2 =
      cached_run(machine, large.profile(), RunConfig{MemConfig::HBM, 64}, &hit);
  EXPECT_TRUE(hit);
  EXPECT_FALSE(l2.feasible);
  EXPECT_EQ(l2.infeasible_reason, r2.infeasible_reason);

  SweepCache::instance().clear();
}

TEST(ParallelSweep, ProfileFingerprintIgnoresNamesButNotTiming) {
  const workloads::StreamTriad stream(4ull << 30);
  const auto base = stream.profile();
  EXPECT_EQ(profile_fingerprint(base), profile_fingerprint(stream.profile()));

  // Same phases under a different profile name: same timing, same key.
  trace::AccessProfile renamed("another-name");
  renamed.set_resident_bytes(base.resident_bytes());
  for (const auto& phase : base.phases()) renamed.add(phase);
  EXPECT_EQ(profile_fingerprint(base), profile_fingerprint(renamed));

  // Any timing-relevant change must move the hash.
  trace::AccessProfile tweaked("another-name");
  tweaked.set_resident_bytes(base.resident_bytes() + 1);
  for (const auto& phase : base.phases()) tweaked.add(phase);
  EXPECT_NE(profile_fingerprint(base), profile_fingerprint(tweaked));
}

TEST(ParallelSweep, MachineFingerprintTracksParameters) {
  const MachineConfig base = MachineConfig::knl7210();
  EXPECT_EQ(base.fingerprint(), MachineConfig::knl7210().fingerprint());

  MachineConfig faster = MachineConfig::knl7210();
  faster.fast_tier().stream_bw_gbs += 1.0;
  EXPECT_NE(base.fingerprint(), faster.fingerprint());

  MachineConfig more_cores = MachineConfig::knl7210();
  more_cores.timing.cores += 4;
  EXPECT_NE(base.fingerprint(), more_cores.fingerprint());
}

TEST(ParallelSweep, StatsAccumulateAndSummarize) {
  SweepStats a{.cells = 6, .evaluated = 4, .cache_hits = 2, .infeasible = 1,
               .cell_seconds = 0.5, .wall_seconds = 0.25};
  const SweepStats b{.cells = 3, .evaluated = 3, .cache_hits = 0, .infeasible = 0,
                     .cell_seconds = 0.1, .wall_seconds = 0.1};
  a += b;
  EXPECT_EQ(a.cells, 9u);
  EXPECT_EQ(a.evaluated, 7u);
  EXPECT_EQ(a.cache_hits, 2u);
  EXPECT_EQ(a.infeasible, 1u);
  EXPECT_DOUBLE_EQ(a.cell_seconds, 0.6);
  EXPECT_DOUBLE_EQ(a.wall_seconds, 0.35);
  const std::string line = a.summary();
  EXPECT_NE(line.find("9 cells"), std::string::npos);
  EXPECT_NE(line.find("2 cache hits"), std::string::npos);
}

}  // namespace
}  // namespace knl::report
