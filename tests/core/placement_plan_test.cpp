// Tests for fine-grained per-structure placement (paper SVI future work).
#include "core/placement_plan.hpp"

#include <gtest/gtest.h>

#include "workloads/minife.hpp"
#include "workloads/xsbench.hpp"

namespace knl {
namespace {

trace::AccessProfile two_structures() {
  // A bandwidth-hungry streaming structure and a latency-bound random one.
  trace::AccessProfile p("mixed");
  trace::AccessPhase stream;
  stream.name = "stream";
  stream.pattern = trace::Pattern::Sequential;
  stream.footprint_bytes = 8 * GiB;
  stream.logical_bytes = 80e9;
  stream.sweeps = 10;
  p.add(stream);

  trace::AccessPhase rnd;
  rnd.name = "random";
  rnd.pattern = trace::Pattern::Random;
  rnd.footprint_bytes = 8 * GiB;
  rnd.logical_bytes = 4e9;
  rnd.granule_bytes = 8;
  p.add(rnd);
  return p;
}

struct PlacerFixture : ::testing::Test {
  Machine machine;
  FineGrainedPlacer placer{machine};
};

TEST_F(PlacerFixture, EmptyPlanEqualsAllDdrRun) {
  const auto p = two_structures();
  const RunResult plan_run = placer.run_plan(p, 64, {});
  const RunResult coarse = machine.run(p, RunConfig{MemConfig::DRAM, 64});
  ASSERT_TRUE(plan_run.feasible);
  EXPECT_NEAR(plan_run.seconds, coarse.seconds, coarse.seconds * 1e-9);
}

TEST_F(PlacerFixture, FullHbmPlanEqualsCoarseHbmWhenItFits) {
  trace::AccessProfile p("small");
  trace::AccessPhase s;
  s.name = "s";
  s.pattern = trace::Pattern::Sequential;
  s.footprint_bytes = 4 * GiB;
  s.logical_bytes = 40e9;
  s.sweeps = 10;
  p.add(s);
  const RunResult plan_run = placer.run_plan(p, 64, {{"s", 1.0}});
  const RunResult coarse = machine.run(p, RunConfig{MemConfig::HBM, 64});
  ASSERT_TRUE(plan_run.feasible && coarse.feasible);
  EXPECT_NEAR(plan_run.seconds, coarse.seconds, coarse.seconds * 1e-9);
}

TEST_F(PlacerFixture, StreamInHbmBeatsRandomInHbm) {
  const auto p = two_structures();
  const RunResult stream_hbm = placer.run_plan(p, 64, {{"stream", 1.0}});
  const RunResult random_hbm = placer.run_plan(p, 64, {{"random", 1.0}});
  ASSERT_TRUE(stream_hbm.feasible && random_hbm.feasible);
  // Placing the bandwidth-bound structure in MCDRAM is the right call;
  // placing the latency-bound one there actively hurts.
  EXPECT_LT(stream_hbm.seconds, random_hbm.seconds);
}

TEST_F(PlacerFixture, OptimizerPicksStreamNotRandom) {
  const auto p = two_structures();
  const PlanOutcome outcome = placer.optimize(p, 64);
  ASSERT_TRUE(outcome.result.feasible);
  ASSERT_TRUE(outcome.plan.contains("stream"));
  EXPECT_DOUBLE_EQ(outcome.plan.at("stream"), 1.0);
  EXPECT_FALSE(outcome.plan.contains("random"));
  // Amdahl: the untouched random phase bounds the total gain.
  EXPECT_GT(outcome.speedup_vs_all_ddr, 1.25);
}

TEST_F(PlacerFixture, OptimizerNeverBeatenByAnyCoarseConfig) {
  // The optimizer's plan must be at least as good as all-DDR and all-HBM
  // coarse placements for a profile that fits either way.
  trace::AccessProfile p("fits");
  trace::AccessPhase s;
  s.name = "s";
  s.pattern = trace::Pattern::Sequential;
  s.footprint_bytes = 2 * GiB;
  s.logical_bytes = 20e9;
  s.sweeps = 10;
  p.add(s);
  trace::AccessPhase r;
  r.name = "r";
  r.pattern = trace::Pattern::Random;
  r.footprint_bytes = 2 * GiB;
  r.logical_bytes = 1e9;
  r.granule_bytes = 8;
  p.add(r);

  const PlanOutcome outcome = placer.optimize(p, 64);
  const RunResult ddr = machine.run(p, RunConfig{MemConfig::DRAM, 64});
  const RunResult hbm = machine.run(p, RunConfig{MemConfig::HBM, 64});
  EXPECT_LE(outcome.result.seconds, ddr.seconds * 1.0001);
  EXPECT_LE(outcome.result.seconds, hbm.seconds * 1.0001);
}

TEST_F(PlacerFixture, MiniFeBeyondMcdramRecoversMostOfHbmBenefit) {
  // The paper's SVI scenario: 24 GB MiniFE cannot bind to MCDRAM coarsely;
  // the per-structure plan must clearly beat both DRAM and cache mode.
  const auto minife = workloads::MiniFe::from_footprint(24ull * 1000 * 1000 * 1000);
  const auto p = minife.profile();
  const PlanOutcome outcome = placer.optimize(p, 64);
  const RunResult dram = machine.run(p, RunConfig{MemConfig::DRAM, 64});
  const RunResult cache = machine.run(p, RunConfig{MemConfig::CacheMode, 64});
  ASSERT_TRUE(outcome.result.feasible);
  EXPECT_LT(outcome.result.seconds, dram.seconds / 1.8);
  EXPECT_LT(outcome.result.seconds, cache.seconds / 1.5);
  EXPECT_LE(outcome.hbm_bytes, machine.config().fast_tier().capacity_bytes);
}

TEST_F(PlacerFixture, XsBenchOptimizerLeavesDataInDdr) {
  const auto xs = workloads::XsBench::from_footprint(22ull * 1000 * 1000 * 1000);
  const PlanOutcome outcome = placer.optimize(xs.profile(), 64);
  EXPECT_EQ(outcome.hbm_bytes, 0u);
  EXPECT_NEAR(outcome.speedup_vs_all_ddr, 1.0, 1e-9);
}

TEST_F(PlacerFixture, PlanValidation) {
  const auto p = two_structures();
  EXPECT_THROW((void)placer.run_plan(p, 64, {{"stream", 1.5}}), std::invalid_argument);
  EXPECT_THROW((void)placer.run_plan(p, 64, {{"nope", 0.5}}), std::invalid_argument);
}

TEST_F(PlacerFixture, OvercommittedPlanInfeasible) {
  trace::AccessProfile p("big");
  trace::AccessPhase s;
  s.name = "s";
  s.pattern = trace::Pattern::Sequential;
  s.footprint_bytes = 20 * GiB;  // > 16 GiB MCDRAM
  s.logical_bytes = 20e9;
  p.add(s);
  const RunResult r = placer.run_plan(p, 64, {{"s", 1.0}});
  EXPECT_FALSE(r.feasible);
  EXPECT_NE(r.infeasible_reason.find("MCDRAM"), std::string::npos);
}

}  // namespace
}  // namespace knl
