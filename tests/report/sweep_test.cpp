// Tests for the sweep runner: figures, derived series, the memoization
// cache (in-memory and persisted), the fingerprints it keys on, and the
// sweep accounting.
#include "report/sweep.hpp"

#include <gtest/gtest.h>

#include <string>

#include "workloads/stream.hpp"

namespace knl::report {
namespace {

// Exact (bitwise) figure equality: same series, same order, same points.
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

WorkloadFactory stream_factory() {
  return [](std::uint64_t bytes) -> std::unique_ptr<workloads::Workload> {
    return std::make_unique<workloads::StreamTriad>(bytes);
  };
}

TEST(Sweep, SizesProduceOnePointPerFeasibleConfig) {
  Machine machine;
  const auto figure = sweep_sizes_run(machine, stream_factory(), {2ull << 30, 4ull << 30},
                                      64, kAllConfigs, Figure("t", "x", "y"))
                          .figure;
  ASSERT_EQ(figure.series().size(), 3u);
  for (const auto& s : figure.series()) EXPECT_EQ(s.points.size(), 2u);
}

TEST(Sweep, InfeasibleHbmPointsOmitted) {
  // 20 GB exceeds MCDRAM: the HBM series must simply miss that size,
  // exactly like the paper's missing red bars.
  Machine machine;
  const auto figure = sweep_sizes_run(machine, stream_factory(),
                                      {8ull << 30, 20ull << 30}, 64, kAllConfigs,
                                      Figure("t", "x", "y"))
                          .figure;
  const Series* hbm = figure.find("HBM");
  ASSERT_NE(hbm, nullptr);
  EXPECT_EQ(hbm->points.size(), 1u);
  const Series* dram = figure.find("DRAM");
  ASSERT_NE(dram, nullptr);
  EXPECT_EQ(dram->points.size(), 2u);
}

TEST(Sweep, ThreadsSweepUsesFixedWorkload) {
  Machine machine;
  const workloads::StreamTriad stream(4ull << 30);
  const auto figure = sweep_threads_run(machine, stream, {64, 128}, {MemConfig::HBM},
                                        Figure("t", "x", "y"))
                          .figure;
  const Series* hbm = figure.find("HBM");
  ASSERT_NE(hbm, nullptr);
  ASSERT_EQ(hbm->points.size(), 2u);
  EXPECT_GT(hbm->points[1].second, hbm->points[0].second);  // SMT helps HBM
}

TEST(Sweep, SelfSpeedupNormalizesToFirstPoint) {
  Figure f("t", "x", "y");
  f.add("s", 1.0, 10.0);
  f.add("s", 2.0, 15.0);
  add_self_speedup_series(f);
  EXPECT_DOUBLE_EQ(*f.value_at("s speedup", 1.0), 1.0);
  EXPECT_DOUBLE_EQ(*f.value_at("s speedup", 2.0), 1.5);
}

TEST(Sweep, RatioSeriesOnlyWhereBothExist) {
  Figure f("t", "x", "y");
  f.add("num", 1.0, 30.0);
  f.add("num", 2.0, 40.0);
  f.add("den", 1.0, 10.0);
  add_ratio_series(f, "num", "den", "ratio");
  EXPECT_DOUBLE_EQ(*f.value_at("ratio", 1.0), 3.0);
  EXPECT_FALSE(f.value_at("ratio", 2.0).has_value());
}

TEST(Sweep, RatioSeriesMissingInputsIsNoop) {
  Figure f("t", "x", "y");
  f.add("num", 1.0, 30.0);
  add_ratio_series(f, "num", "absent", "ratio");
  EXPECT_EQ(f.find("ratio"), nullptr);
}

TEST(Sweep, SelfSpeedupOnEmptyFigureIsNoop) {
  Figure f("t", "x", "y");
  add_self_speedup_series(f);
  EXPECT_TRUE(f.series().empty());
}

TEST(Sweep, SelfSpeedupSkipsSeriesWithNonPositiveBase) {
  Figure f("t", "x", "y");
  f.add("zero-base", 1.0, 0.0);
  f.add("zero-base", 2.0, 5.0);
  f.add("ok", 1.0, 2.0);
  f.add("ok", 2.0, 4.0);
  add_self_speedup_series(f);
  // The zero-base series cannot be normalized; only "ok" gains a speedup line.
  EXPECT_EQ(f.find("zero-base speedup"), nullptr);
  ASSERT_NE(f.find("ok speedup"), nullptr);
  EXPECT_DOUBLE_EQ(*f.value_at("ok speedup", 2.0), 2.0);
}

TEST(Sweep, RatioSeriesNonOverlappingXCreatesNoSeries) {
  Figure f("t", "x", "y");
  f.add("num", 1.0, 30.0);
  f.add("den", 2.0, 10.0);
  add_ratio_series(f, "num", "den", "ratio");
  EXPECT_EQ(f.find("ratio"), nullptr);
}

TEST(Sweep, RatioSeriesOnEmptyFigureIsNoop) {
  Figure f("t", "x", "y");
  add_ratio_series(f, "num", "den", "ratio");
  EXPECT_TRUE(f.series().empty());
}

// SweepCache, fingerprint and SweepStats cases. They keep the suite name
// `ParallelSweep` so that their test ids stay stable.
TEST(ParallelSweep, StatsCountInfeasibleCells) {
  Machine machine;
  // 20 GB exceeds MCDRAM capacity: the HBM cell is infeasible.
  const SweepRun run = sweep_sizes_run(machine, stream_factory(), {20ull << 30}, 64,
                                       kAllConfigs, Figure("t", "x", "y"),
                                       {.memoize = false});
  EXPECT_EQ(run.stats.cells, kAllConfigs.size());
  EXPECT_EQ(run.stats.infeasible, 1u);
  EXPECT_EQ(run.figure.find("HBM"), nullptr);
}

TEST(ParallelSweep, MemoizationHitsOnSecondRun) {
  SweepCache::instance().clear();
  Machine machine;
  const workloads::StreamTriad stream(4ull << 30);
  const SweepRun cold = sweep_threads_run(machine, stream, {64, 128}, kAllConfigs,
                                          Figure("t", "x", "y"));
  EXPECT_EQ(cold.stats.evaluated, cold.stats.cells);
  EXPECT_EQ(cold.stats.cache_hits, 0u);

  const SweepRun warm = sweep_threads_run(machine, stream, {64, 128}, kAllConfigs,
                                          Figure("t", "x", "y"));
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
