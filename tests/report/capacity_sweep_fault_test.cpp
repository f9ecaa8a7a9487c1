// Fault determinism for the single-pass sweep engine: profiling passes live
// in their own injection key space (kProfilePassKeyBase + ordinal) at the
// sweep-cell site; a transient pass fault retries to identical results, a
// permanent pass fault falls back to the per-cell reference with zero drift,
// and cell-level faults keep their exact per-index schedule.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/fault/fault_injection.hpp"
#include "report/sweep.hpp"
#include "workloads/stream.hpp"

namespace knl::report {
namespace {

constexpr fault::RetryPolicy kQuickRetry{.max_attempts = 3, .base_delay_ms = 0.01};

class CapacitySweepFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SweepCache::instance().clear();
    SweepCache::instance().reset_stats();
  }
  void TearDown() override { SetUp(); }
};

CapacityGrid test_grid() {
  CapacityGrid grid;
  grid.line_bytes = 64;
  grid.num_sets = 64;
  grid.synth.max_addresses = 1u << 16;
  for (const std::uint64_t ways : {1ull, 2ull, 4ull, 8ull, 16ull, 32ull}) {
    grid.capacities_bytes.push_back(ways * grid.line_bytes * grid.num_sets);
  }
  return grid;
}

CapacitySweepRun run_grid(const SweepOptions& options) {
  Machine machine;
  return sweep_capacities_run(machine, workloads::StreamTriad(1 << 20).profile(), 64,
                              test_grid(), Figure("capacity", "GB", ""), options);
}

void expect_identical_cells(const CapacitySweepRun& a, const CapacitySweepRun& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].hit_rate, b.cells[i].hit_rate) << "cell " << i;
    EXPECT_EQ(a.cells[i].effective_bw_gbs, b.cells[i].effective_bw_gbs)
        << "cell " << i;
    EXPECT_EQ(a.cells[i].seconds, b.cells[i].seconds) << "cell " << i;
  }
}

TEST_F(CapacitySweepFaultTest, TransientPassFaultRetriesToIdenticalResults) {
  const CapacitySweepRun clean = run_grid({.memoize = false, .retry = kQuickRetry});

  // Key 2^20 is the first profiling pass; no grid cell can collide with it.
  const fault::ScopedFaultPlan scope(fault::FaultPlan::parse(
      "seed=7;site=sweep-cell,key=1048576,kind=transient,attempts=1"));
  const CapacitySweepRun run = run_grid({.memoize = false, .retry = kQuickRetry});
  expect_identical_cells(clean, run);
  EXPECT_TRUE(run.failures.empty());
  EXPECT_EQ(run.stats.retries, 1u);  // the pass retried exactly once
  EXPECT_EQ(run.stats.profile_passes, 1u);
  EXPECT_EQ(run.stats.cells_derived, clean.stats.cells_derived);
}

TEST_F(CapacitySweepFaultTest, PermanentPassFaultFallsBackToReference) {
  const CapacitySweepRun clean = run_grid({.memoize = false, .retry = kQuickRetry});

  // kind=internal exhausts no retry budget — the pass fails for good and the
  // engine silently reverts to the per-cell reference path: identical cells,
  // just none of them profile-derived.
  const fault::ScopedFaultPlan scope(fault::FaultPlan::parse(
      "seed=7;site=sweep-cell,key=1048576,kind=internal,attempts=99"));
  const CapacitySweepRun run = run_grid({.memoize = false, .retry = kQuickRetry});
  expect_identical_cells(clean, run);
  EXPECT_TRUE(run.failures.empty());
  EXPECT_EQ(run.stats.profile_passes, 0u);
  EXPECT_EQ(run.stats.profile_hits, 0u);
  EXPECT_EQ(run.stats.cells_derived, 0u);
  EXPECT_EQ(run.stats.failed, 0u);
}

TEST_F(CapacitySweepFaultTest, CellFaultScheduleIsExactAcrossJobCounts) {
  // every=2 over cell keys 0..5 fails cells 0, 2, 4; the profiling pass key
  // (2^20) is even but sits in the other population only when selected by
  // modulo — so pin the schedule with selects() instead of assuming.
  const fault::ScopedFaultPlan scope(fault::FaultPlan::parse(
      "seed=11;site=sweep-cell,every=2,kind=internal"));
  std::vector<std::size_t> expected;
  for (std::size_t key = 0; key < 6; ++key) {
    if (fault::FaultInjector::instance().selects(fault::kSiteSweepCell, key)) {
      expected.push_back(key);
    }
  }
  ASSERT_FALSE(expected.empty());
  const bool pass_selected = fault::FaultInjector::instance().selects(
      fault::kSiteSweepCell, kProfilePassKeyBase);

  const CapacitySweepRun run = run_grid({.memoize = false, .retry = kQuickRetry});
  std::vector<std::size_t> failed;
  for (const CellFailure& f : run.failures) failed.push_back(f.index);
  EXPECT_EQ(failed, expected);
  EXPECT_EQ(run.stats.failed, expected.size());
  // A selected pass fails for good and the grid falls back to the per-cell
  // reference; otherwise every surviving cell is derived from the profile.
  EXPECT_EQ(run.stats.cells_derived,
            pass_selected ? 0u : run.cells.size() - expected.size());
}

}  // namespace
}  // namespace knl::report
