// Tests for the Advisor (the paper's guideline engine).
#include "core/advisor.hpp"

#include <gtest/gtest.h>

namespace knl {
namespace {

struct AdvisorFixture : ::testing::Test {
  Machine machine;
  Advisor advisor{machine};
};

TEST_F(AdvisorFixture, RegularAppThatFitsGetsHbm) {
  AppCharacteristics app;
  app.name = "stream-like";
  app.regular_fraction = 1.0;
  app.footprint_bytes = 8 * GiB;
  const Advice advice = advisor.advise(app);
  EXPECT_EQ(advice.classification, "bandwidth-bound");
  EXPECT_EQ(advice.best.config, MemConfig::HBM);
  EXPECT_GT(advice.best.predicted_speedup_vs_dram64, 2.0);
}

TEST_F(AdvisorFixture, RandomAppAtOneThreadPerCorePrefersDram) {
  AppCharacteristics app;
  app.name = "gups-like";
  app.regular_fraction = 0.0;
  app.footprint_bytes = 8 * GiB;
  app.max_threads = 64;  // no hyper-threading available
  const Advice advice = advisor.advise(app);
  EXPECT_EQ(advice.classification, "latency-bound");
  EXPECT_EQ(advice.best.config, MemConfig::DRAM);
}

TEST_F(AdvisorFixture, RandomAppWithSmtMayFlipAwayFromDram) {
  // The paper's XSBench result: enough hardware threads make HBM/cache the
  // best configuration even for latency-bound code.
  AppCharacteristics app;
  app.name = "xsbench-like";
  app.regular_fraction = 0.0;
  app.footprint_bytes = 8 * GiB;
  app.max_threads = 256;
  const Advice advice = advisor.advise(app);
  EXPECT_EQ(advice.best.threads, 256);
  EXPECT_NE(advice.best.config, MemConfig::DRAM);
}

TEST_F(AdvisorFixture, OversizedFootprintMentionsInfeasibleHbm) {
  AppCharacteristics app;
  app.name = "big";
  app.regular_fraction = 1.0;
  app.footprint_bytes = 40 * GiB;
  const Advice advice = advisor.advise(app);
  EXPECT_NE(advice.best.config, MemConfig::HBM);
  EXPECT_NE(advice.best.rationale.find("exceeds MCDRAM"), std::string::npos);
  // HBM candidates must be marked infeasible, not silently dropped.
  bool saw_infeasible_hbm = false;
  for (const auto& rec : advice.ranked) {
    if (rec.config == MemConfig::HBM && !rec.feasible) saw_infeasible_hbm = true;
  }
  EXPECT_TRUE(saw_infeasible_hbm);
}

TEST_F(AdvisorFixture, HighIntensityClassifiedComputeBound) {
  AppCharacteristics app;
  app.name = "gemm-like";
  app.regular_fraction = 1.0;
  app.flops_per_byte = 20.0;
  app.footprint_bytes = 2 * GiB;
  const Advice advice = advisor.advise(app);
  EXPECT_EQ(advice.classification, "compute-bound");
}

TEST_F(AdvisorFixture, RankedSortedDescending) {
  AppCharacteristics app;
  app.footprint_bytes = 4 * GiB;
  app.regular_fraction = 0.5;
  const Advice advice = advisor.advise(app);
  ASSERT_GE(advice.ranked.size(), 2u);
  for (std::size_t i = 1; i < advice.ranked.size(); ++i) {
    EXPECT_GE(advice.ranked[i - 1].predicted_speedup_vs_dram64,
              advice.ranked[i].predicted_speedup_vs_dram64);
  }
  EXPECT_EQ(advice.ranked.front().predicted_speedup_vs_dram64,
            advice.best.predicted_speedup_vs_dram64);
}

TEST_F(AdvisorFixture, MaxThreadsRespected) {
  AppCharacteristics app;
  app.footprint_bytes = 4 * GiB;
  app.max_threads = 128;
  const Advice advice = advisor.advise(app);
  for (const auto& rec : advice.ranked) EXPECT_LE(rec.threads, 128);
}

TEST(AdvisorSynthesize, ValidationErrors) {
  AppCharacteristics bad;
  bad.footprint_bytes = 0;
  EXPECT_THROW((void)Advisor::synthesize(bad), std::invalid_argument);
  AppCharacteristics bad2;
  bad2.footprint_bytes = GiB;
  bad2.regular_fraction = 1.5;
  EXPECT_THROW((void)Advisor::synthesize(bad2), std::invalid_argument);
}

TEST(AdvisorSynthesize, MixedAppGetsBothPhases) {
  AppCharacteristics app;
  app.footprint_bytes = GiB;
  app.regular_fraction = 0.5;
  const auto profile = Advisor::synthesize(app);
  EXPECT_EQ(profile.phases().size(), 2u);
  EXPECT_EQ(profile.resident_bytes(), GiB);
}

TEST(AdvisorSynthesize, BaselineInfeasibleFootprintThrowsOnAdvise) {
  Machine machine;
  AppCharacteristics app;
  app.footprint_bytes = 200 * GiB;  // exceeds even DDR
  EXPECT_THROW((void)Advisor(machine).advise(app), std::runtime_error);
}

TEST(AdvisorSynthesize, MaxThreadsBelowTheBaselineThrowsOnAdvise) {
  // Every candidate under 64 threads would be skipped, leaving no DRAM@64
  // baseline and an empty ranking.
  Machine machine;
  AppCharacteristics app;
  app.footprint_bytes = GiB;
  for (const int max_threads : {1, 32, 63}) {
    app.max_threads = max_threads;
    EXPECT_THROW((void)Advisor(machine).advise(app), std::invalid_argument) << max_threads;
  }
  app.max_threads = 64;
  EXPECT_EQ(Advisor(machine).advise(app).ranked.size(), 3u);
}

TEST(AdvisorXeonMax, RationaleNamesTheFastTierAndItsCapacity) {
  const Machine machine(MachineConfig::xeon_max());
  const Advisor advisor(machine);
  AppCharacteristics app;
  app.regular_fraction = 1.0;

  app.footprint_bytes = 100 * GiB;
  const std::string big = advisor.advise(app).best.rationale;
  EXPECT_NE(big.find("exceeds HBM2e (100 GiB > 64 GiB)"), std::string::npos) << big;
  EXPECT_EQ(big.find("MCDRAM"), std::string::npos) << big;

  // 20 GiB would overflow KNL's 16 GiB MCDRAM but fits 64 GiB of HBM2e.
  app.footprint_bytes = 20 * GiB;
  const std::string fits = advisor.advise(app).best.rationale;
  EXPECT_EQ(fits.find("exceeds"), std::string::npos) << fits;
}

}  // namespace
}  // namespace knl
