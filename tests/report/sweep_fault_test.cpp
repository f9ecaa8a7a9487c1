// Fault-determinism tests for the sweep engine: a fault plan yields an exact
// failure schedule and exact retry counters, and absorbed transient faults
// leave the surviving results bit-identical.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/fault/fault_injection.hpp"
#include "report/sweep.hpp"
#include "workloads/stream.hpp"

namespace knl::report {
namespace {

// Exact (bitwise) figure equality — the determinism guarantee has no
// tolerance (mirrors sweep_test).
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
  return [](std::uint64_t bytes) {
    return std::unique_ptr<workloads::Workload>(
        std::make_unique<workloads::StreamTriad>(bytes));
  };
}

const std::vector<std::uint64_t> kSizes{2ull << 30, 8ull << 30};  // 6 cells

// Fast retry for tests: same budget as the default, negligible sleeps.
constexpr fault::RetryPolicy kQuickRetry{.max_attempts = 3, .base_delay_ms = 0.01};

SweepRun run_sizes(const SweepOptions& options) {
  Machine machine;
  return sweep_sizes_run(machine, stream_factory(), kSizes, 64, kAllConfigs,
                         Figure("fault-sweep", "GB", "GB/s"), options);
}

std::vector<std::size_t> failure_indices(const SweepRun& run) {
  std::vector<std::size_t> indices;
  for (const CellFailure& failure : run.failures) indices.push_back(failure.index);
  return indices;
}

TEST(SweepFault, FailureScheduleIsIdenticalAcrossJobCounts) {
  // kind=internal: no retry, the selected cells fail for good.
  const fault::ScopedFaultPlan scope(
      fault::FaultPlan::parse("seed=42;site=sweep-cell,every=2,kind=internal"));

  const SweepRun run = run_sizes({.memoize = false, .retry = kQuickRetry});
  // every=2 over cells 0..5: exactly 0, 2, 4 fail — pure plan arithmetic.
  EXPECT_EQ(failure_indices(run), (std::vector<std::size_t>{0, 2, 4}));
  EXPECT_EQ(run.stats.failed, 3u);
  EXPECT_EQ(run.stats.retries, 0u);  // internal faults are not retried
  for (const CellFailure& failure : run.failures) {
    EXPECT_EQ(failure.category, ErrorCategory::Internal);
    EXPECT_NE(failure.message.find("fault/injected"), std::string::npos);
    EXPECT_FALSE(failure.label.empty());
  }
  // The surviving cells' points still land in the figure.
  std::size_t points = 0;
  for (const Series& s : run.figure.series()) points += s.points.size();
  EXPECT_EQ(points, 3u);
}

TEST(SweepFault, TransientFaultsAreAbsorbedBitIdentically) {
  // A clean reference run first (no plan armed).
  const SweepRun clean = run_sizes({.memoize = false});

  const fault::ScopedFaultPlan scope(fault::FaultPlan::parse(
      "seed=42;site=sweep-cell,rate=0.45,kind=transient,attempts=1"));
  // Count the planned failures: retry counters must match them exactly.
  std::size_t planned = 0;
  for (std::size_t key = 0; key < 6; ++key) {
    if (fault::FaultInjector::instance().selects(fault::kSiteSweepCell, key)) {
      ++planned;
    }
  }
  ASSERT_GT(planned, 0u) << "plan selects nothing; raise the rate";

  const SweepRun run = run_sizes({.memoize = false, .retry = kQuickRetry});
  EXPECT_EQ(run.stats.retries, planned);  // exact, not approximate
  EXPECT_EQ(run.stats.failed, 0u);
  EXPECT_TRUE(run.failures.empty());
  expect_identical(clean.figure, run.figure);  // zero drift
}

TEST(SweepFault, ExactRetryCountersForAttemptBudgets) {
  // every=3 selects cells 0 and 3; attempts=2 means each fails twice and
  // succeeds on the third try: exactly 4 retries.
  const fault::ScopedFaultPlan scope(fault::FaultPlan::parse(
      "seed=7;site=sweep-cell,every=3,kind=transient,attempts=2"));
  const SweepRun run = run_sizes({.memoize = false, .retry = kQuickRetry});
  EXPECT_EQ(run.stats.retries, 4u);
  EXPECT_EQ(run.stats.failed, 0u);
}

TEST(SweepFault, ExhaustedRetryBudgetCollectsEveryFailure) {
  // attempts=9 outlasts the 3-attempt retry budget: cells 0, 2, 4 fail for
  // good, and *all* of them are reported — never just the first.
  const fault::ScopedFaultPlan scope(fault::FaultPlan::parse(
      "seed=1;site=sweep-cell,every=2,kind=transient,attempts=9"));
  const SweepRun run = run_sizes({.memoize = false, .retry = kQuickRetry});
  EXPECT_EQ(failure_indices(run), (std::vector<std::size_t>{0, 2, 4}));
  EXPECT_EQ(run.stats.failed, 3u);
  // Each failed cell burned the full budget: 2 retries apiece.
  EXPECT_EQ(run.stats.retries, 6u);
  for (const CellFailure& failure : run.failures) {
    EXPECT_EQ(failure.category, ErrorCategory::Transient);
  }
  // Survivors (cells 1, 3, 5) still contribute their points.
  std::size_t points = 0;
  for (const Series& s : run.figure.series()) points += s.points.size();
  EXPECT_EQ(points, 3u);
}

TEST(SweepFault, SummaryMentionsFaultCountersOnlyWhenSomethingFired) {
  SweepStats quiet{.cells = 6, .evaluated = 6};
  EXPECT_EQ(quiet.summary().find("faults:"), std::string::npos);

  quiet.retries = 2;
  quiet.failed = 1;
  const std::string line = quiet.summary();
  EXPECT_NE(line.find("faults: 2 retries, 1 failed"), std::string::npos);
  EXPECT_EQ(line.find("serial fallbacks"), std::string::npos);
}

TEST(SweepFault, StatsAccumulateFaultCounters) {
  SweepStats a{.cells = 3, .retries = 1, .failed = 1};
  const SweepStats b{.cells = 3, .retries = 2, .failed = 0};
  a += b;
  EXPECT_EQ(a.cells, 6u);
  EXPECT_EQ(a.retries, 3u);
  EXPECT_EQ(a.failed, 1u);
}

}  // namespace
}  // namespace knl::report
