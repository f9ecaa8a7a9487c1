// Tests for the calibration sensitivity analysis — including the headline
// robustness claims: the paper's conclusions survive +-10% on every
// calibrated parameter.
#include "report/sensitivity.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace knl::report {
namespace {

void expect_all_hold(const std::vector<SensitivityRow>& rows) {
  for (const SensitivityRow& row : rows) {
    EXPECT_TRUE(row.holds) << row.parameter << " " << row.delta;
  }
}

TEST(Sensitivity, SweepShapeAndDeterminism) {
  const auto rows = sensitivity_sweep(MachineConfig::knl7210(),
                                      standard_perturbations(), {-0.1, 0.1},
                                      conclusions::gups_prefers_dram());
  EXPECT_EQ(rows.size(), standard_perturbations().size() * 2);
  const auto again = sensitivity_sweep(MachineConfig::knl7210(),
                                       standard_perturbations(), {-0.1, 0.1},
                                       conclusions::gups_prefers_dram());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].holds, again[i].holds);
    EXPECT_EQ(rows[i].parameter, again[i].parameter);
  }
}

TEST(Sensitivity, GupsConclusionRobustToTenPercent) {
  const auto rows = sensitivity_sweep(MachineConfig::knl7210(),
                                      standard_perturbations(), {-0.10, 0.10},
                                      conclusions::gups_prefers_dram());
  expect_all_hold(rows);
}

TEST(Sensitivity, MiniFeSpeedupRobustToTenPercent) {
  const auto rows = sensitivity_sweep(MachineConfig::knl7210(),
                                      standard_perturbations(), {-0.10, 0.10},
                                      conclusions::minife_hbm_speedup_at_least(2.5));
  expect_all_hold(rows);
}

TEST(Sensitivity, XsBenchCrossoverRobustToFivePercent) {
  // The crossover is the most delicate conclusion (it flips on the balance
  // between the DDR cap and SMT concurrency) — it must still survive
  // modest perturbation.
  const auto rows = sensitivity_sweep(MachineConfig::knl7210(),
                                      standard_perturbations(), {-0.05, 0.05},
                                      conclusions::xsbench_crossover_at_256());
  expect_all_hold(rows);
}

TEST(Sensitivity, LargeEnoughPerturbationBreaksConclusions) {
  // Sanity: the analysis is not vacuous — swinging HBM latency far enough
  // below DDR's must flip the GUPS conclusion.
  const std::vector<NamedPerturbation> only_latency{
      {"hbm_latency",
       [](MachineConfig& cfg, double d) { cfg.fast_tier().idle_latency_ns *= 1.0 + d; }}};
  const auto rows = sensitivity_sweep(MachineConfig::knl7210(), only_latency, {-0.5},
                                      conclusions::gups_prefers_dram());
  EXPECT_TRUE(std::any_of(rows.begin(), rows.end(),
                          [](const SensitivityRow& row) { return !row.holds; }));
}

TEST(Sensitivity, EveryPerturbationRunsOnMultiTierProfiles) {
  // Each perturbation edits the machine's one topology, so it applies to
  // every profile — and must actually change the machine it perturbs.
  for (const MachineConfig& base : {MachineConfig::xeon_max(), MachineConfig::knl_nvm()}) {
    std::vector<SensitivityRow> rows;
    EXPECT_NO_THROW(rows = sensitivity_sweep(base, standard_perturbations(), {-0.1, 0.1},
                                             conclusions::gups_prefers_dram()))
        << base.topology.name;
    EXPECT_EQ(rows.size(), standard_perturbations().size() * 2);
    for (const NamedPerturbation& perturbation : standard_perturbations()) {
      MachineConfig cfg = base;
      perturbation.apply(cfg, 0.1);
      EXPECT_NE(cfg.fingerprint(), base.fingerprint())
          << base.topology.name << " " << perturbation.name;
    }
  }
}

TEST(Sensitivity, NullConclusionThrows) {
  EXPECT_THROW((void)sensitivity_sweep(MachineConfig::knl7210(),
                                       standard_perturbations(), {0.1}, nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace knl::report
