// Single-pass capacity sweeps: the planner's derived cells must equal the
// per-cell reference exactly (LRU inclusion), one profiling pass must serve
// every grid sharing a fingerprint, and profiles must hit across *different*
// grids via the SweepCache.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "report/sweep.hpp"
#include "workloads/gups.hpp"
#include "workloads/stream.hpp"

namespace knl::report {
namespace {

/// Reset the process-wide cache around every test: these tests share the
/// singleton with every other sweep test in the binary.
class CapacitySweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SweepCache::instance().clear();
    SweepCache::instance().reset_stats();
  }
  void TearDown() override { SetUp(); }
};

/// Small geometry so the reference path (a full trace replay per cell) stays
/// fast: 64 sets x 64 B lines = 4 KiB per way.
CapacityGrid small_grid(std::vector<std::uint64_t> ways_list) {
  CapacityGrid grid;
  grid.line_bytes = 64;
  grid.num_sets = 64;
  grid.synth.max_addresses = 1u << 16;
  for (const std::uint64_t ways : ways_list) {
    grid.capacities_bytes.push_back(ways * grid.line_bytes * grid.num_sets);
  }
  return grid;
}

trace::AccessProfile stream_profile() {
  return workloads::StreamTriad(1 << 20).profile();
}

trace::AccessProfile gups_profile() { return workloads::Gups(1 << 20).profile(); }

CapacitySweepRun run_one(const trace::AccessProfile& profile, CapacityGrid grid,
                         const SweepOptions& options) {
  Machine machine;
  return sweep_capacities_run(machine, profile, 64, std::move(grid),
                              Figure("capacity", "GB", ""), options);
}

void expect_same_cells(const CapacitySweepRun& a, const CapacitySweepRun& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].capacity_bytes, b.cells[i].capacity_bytes) << "cell " << i;
    EXPECT_EQ(a.cells[i].ways, b.cells[i].ways) << "cell " << i;
    // Exact: both engines simulate the same set-associative LRU over the
    // same synthesized trace, so inclusion gives equality, not tolerance.
    EXPECT_EQ(a.cells[i].hit_rate, b.cells[i].hit_rate) << "cell " << i;
    EXPECT_EQ(a.cells[i].effective_bw_gbs, b.cells[i].effective_bw_gbs)
        << "cell " << i;
    EXPECT_EQ(a.cells[i].avg_latency_ns, b.cells[i].avg_latency_ns) << "cell " << i;
    EXPECT_EQ(a.cells[i].seconds, b.cells[i].seconds) << "cell " << i;
  }
}

TEST_F(CapacitySweepTest, SinglePassEqualsPerCellReference) {
  // Mixed pow2 and non-pow2 associativities: the reference uses CacheSim for
  // the former, the bounded-MTF simulator for the latter.
  const CapacityGrid grid = small_grid({1, 2, 3, 4, 6, 8, 16});
  for (const auto& profile : {stream_profile(), gups_profile()}) {
    SweepOptions single;
    const CapacitySweepRun fast = run_one(profile, grid, single);
    SweepOptions reference;
    reference.single_pass = false;
    reference.memoize = false;
    const CapacitySweepRun exact = run_one(profile, grid, reference);
    expect_same_cells(fast, exact);
    EXPECT_EQ(fast.stats.cells_derived, grid.capacities_bytes.size());
    EXPECT_EQ(exact.stats.cells_derived, 0u);
    EXPECT_TRUE(fast.failures.empty());
    EXPECT_TRUE(exact.failures.empty());
  }
}

TEST_F(CapacitySweepTest, HitRateIsMonotoneInCapacity) {
  const CapacitySweepRun run =
      run_one(gups_profile(), small_grid({1, 2, 4, 8, 16, 32}), SweepOptions{});
  for (std::size_t i = 1; i < run.cells.size(); ++i) {
    EXPECT_GE(run.cells[i].hit_rate, run.cells[i - 1].hit_rate) << "cell " << i;
  }
}

TEST_F(CapacitySweepTest, PlannerCoalescesSharedFingerprints) {
  // Two different grids over the same (trace, machine, threads, geometry):
  // one profiling pass, the second grid a pure profile hit.
  Machine machine;
  SweepPlanner planner;
  planner.add(machine, stream_profile(), 64, small_grid({1, 2, 4}),
              Figure("a", "GB", ""));
  planner.add(machine, stream_profile(), 64, small_grid({3, 8}),
              Figure("b", "GB", ""));
  const std::vector<CapacitySweepRun> runs = planner.run();
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].stats.profile_passes, 1u);
  EXPECT_EQ(runs[0].stats.profile_hits, 0u);
  EXPECT_EQ(runs[1].stats.profile_passes, 0u);
  EXPECT_EQ(runs[1].stats.profile_hits, 1u);
  EXPECT_EQ(runs[0].stats.cells_derived, 3u);
  EXPECT_EQ(runs[1].stats.cells_derived, 2u);
  // Both grids read the same histogram: grid b's 3-way cell sits between
  // grid a's 2-way and 4-way cells (prefix sums of one histogram).
  EXPECT_GE(runs[1].cells[0].hit_rate, runs[0].cells[1].hit_rate);
  EXPECT_LE(runs[1].cells[0].hit_rate, runs[0].cells[2].hit_rate);
}

TEST_F(CapacitySweepTest, ProfileCacheHitsAcrossPlanners) {
  // A later planner (a later service query) with a *different* grid hits the
  // profile the first planner stored.
  const CapacitySweepRun first =
      run_one(stream_profile(), small_grid({1, 4}), SweepOptions{});
  EXPECT_EQ(first.stats.profile_passes, 1u);
  const CapacitySweepRun second =
      run_one(stream_profile(), small_grid({2, 8, 16}), SweepOptions{});
  EXPECT_EQ(second.stats.profile_passes, 0u);
  EXPECT_EQ(second.stats.profile_hits, 1u);
  const SweepCacheStats stats = SweepCache::instance().stats();
  EXPECT_EQ(stats.profile_inserts, 1u);
  EXPECT_GE(stats.profile_hits, 1u);
}

TEST_F(CapacitySweepTest, GridOrderIsPreserved) {
  // Cells and figure points land in grid order even when capacities are not
  // sorted — the merge is slot-ordered, never completion-ordered.
  const CapacitySweepRun run =
      run_one(stream_profile(), small_grid({16, 1, 8, 2}), SweepOptions{});
  ASSERT_EQ(run.cells.size(), 4u);
  EXPECT_EQ(run.cells[0].ways, 16u);
  EXPECT_EQ(run.cells[1].ways, 1u);
  EXPECT_EQ(run.cells[2].ways, 8u);
  EXPECT_EQ(run.cells[3].ways, 2u);
  ASSERT_EQ(run.figure.series().size(), 2u);
  EXPECT_EQ(run.figure.series()[0].name, "MCDRAM$ hit rate");
  EXPECT_EQ(run.figure.series()[1].name, "effective GB/s");
  ASSERT_EQ(run.figure.series()[0].points.size(), 4u);
  EXPECT_DOUBLE_EQ(run.figure.series()[0].points[0].first,
                   static_cast<double>(16ull * 64 * 64) / 1e9);
}

TEST_F(CapacitySweepTest, MisalignedCapacityIsACellFailureNotAnAbort) {
  CapacityGrid grid = small_grid({1, 4});
  grid.capacities_bytes.insert(grid.capacities_bytes.begin() + 1, 4097);
  const CapacitySweepRun run = run_one(stream_profile(), grid, SweepOptions{});
  ASSERT_EQ(run.failures.size(), 1u);
  EXPECT_EQ(run.failures[0].index, 1u);
  EXPECT_EQ(run.failures[0].category, ErrorCategory::CorruptInput);
  EXPECT_EQ(run.stats.failed, 1u);
  // The surviving cells still computed (a streaming trace legitimately has
  // hit rate 0 at these tiny capacities, so check the timing outputs).
  EXPECT_EQ(run.cells[0].ways, 1u);
  EXPECT_EQ(run.cells[2].ways, 4u);
  EXPECT_GT(run.cells[2].effective_bw_gbs, 0.0);
  EXPECT_GT(run.cells[2].seconds, 0.0);
}

}  // namespace
}  // namespace knl::report
