// Tests for the device-level DRAM model — including the cross-check that
// the hand-calibrated node caps in knl_params.hpp are consistent with
// device physics.
#include "dram_model.hpp"

#include <gtest/gtest.h>

#include "sim/knl_params.hpp"

namespace knl::sim {
namespace {

TEST(DramModel, RowStateLatenciesOrdered) {
  const DramModel ddr(ddr4_2133_6ch());
  EXPECT_LT(ddr.row_hit_ns(), ddr.row_closed_ns());
  EXPECT_LT(ddr.row_closed_ns(), ddr.row_conflict_ns());
  EXPECT_NEAR(ddr.row_cycle_ns(), 46.06, 0.1);  // tRAS + tRP
}

TEST(DramModel, Ddr4PeakMatchesDataSheet) {
  // 6 channels x 8 B x 2133 MT/s = 102.4 GB/s (the "~90 GB/s" data-sheet
  // figure the paper quotes is the derated sustained number).
  const DramModel ddr(ddr4_2133_6ch());
  EXPECT_NEAR(ddr.peak_bw_gbs(), 102.4, 0.5);
}

TEST(DramModel, DerivedDdrStreamBracketsCalibratedCap) {
  const DramModel ddr(ddr4_2133_6ch());
  const double derived = ddr.stream_bw_gbs();
  EXPECT_NEAR(derived, params::kDdr.stream_bw_gbs, params::kDdr.stream_bw_gbs * 0.10);
}

TEST(DramModel, DerivedDdrRandomBracketsCalibratedCap) {
  // tFAW-limited: 6 ch x 4 activates / 30 ns x 64 B = 51.2 GB/s ideal; the
  // calibrated 40 GB/s sits below it (refresh, imperfect interleave).
  const DramModel ddr(ddr4_2133_6ch());
  const double derived = ddr.random_bw_gbs();
  EXPECT_GT(derived, params::kDdr.random_bw_gbs * 0.9);
  EXPECT_LT(derived, params::kDdr.random_bw_gbs * 1.6);
}

TEST(DramModel, DerivedDdrIdleLatencyNearMeasuredAnchor) {
  const DramModel ddr(ddr4_2133_6ch());
  EXPECT_NEAR(ddr.idle_latency_ns(), params::kDdr.idle_latency_ns,
              params::kDdr.idle_latency_ns * 0.05);
}

TEST(DramModel, McdramWinsOnParallelismNotLatency) {
  // The paper's (and Chang et al.'s) key device fact: MCDRAM's advantage
  // is bandwidth; its latency is *higher* than DDR's.
  const DramModel ddr(ddr4_2133_6ch());
  const DramModel hbm(mcdram_8dev());
  EXPECT_GT(hbm.peak_bw_gbs(), 4.0 * ddr.peak_bw_gbs());
  EXPECT_GT(hbm.stream_bw_gbs(), 4.0 * ddr.stream_bw_gbs());
  EXPECT_GT(hbm.idle_latency_ns(), ddr.idle_latency_ns());
}

TEST(DramModel, DerivedMcdramCapsBracketCalibration) {
  const DramModel hbm(mcdram_8dev());
  // Stream: derived device ceiling within ~15% of the 4-HT STREAM cap.
  EXPECT_NEAR(hbm.stream_bw_gbs(), params::kHbm.stream_bw_gbs,
              params::kHbm.stream_bw_gbs * 0.15);
  // Random: tFAW-limited 16 ch x 4 / 16 ns x 64 B = 256 GB/s vs 240 cal.
  EXPECT_NEAR(hbm.random_bw_gbs(), params::kHbm.random_bw_gbs,
              params::kHbm.random_bw_gbs * 0.15);
  EXPECT_NEAR(hbm.idle_latency_ns(), params::kHbm.idle_latency_ns,
              params::kHbm.idle_latency_ns * 0.05);
}

TEST(DramModel, RandomBandwidthIsTfawLimitedOnDdr) {
  // With 96 banks, bank parallelism allows 133 GB/s — the activate window
  // must be the binding constraint.
  DramTiming t = ddr4_2133_6ch();
  const DramModel model(t);
  const double bank_bound = 6.0 * 16.0 / (model.row_cycle_ns() * 1e-9) * 64.0 / 1e9;
  EXPECT_LT(model.random_bw_gbs(), bank_bound);
  // Loosening tFAW raises random bandwidth until banks bind.
  DramTiming fast = t;
  fast.tFAW = 1.0;
  const DramModel unbound(fast);
  EXPECT_NEAR(unbound.random_bw_gbs(), bank_bound, bank_bound * 0.01);
}

TEST(DramModel, StreamEfficiencyDegradesWithRowMisses) {
  DramTiming t = ddr4_2133_6ch();
  t.stream_row_hit = 1.0;
  const double perfect = DramModel(t).stream_bw_gbs();
  t.stream_row_hit = 0.5;
  const double thrashing = DramModel(t).stream_bw_gbs();
  EXPECT_LT(thrashing, perfect * 0.4);
  EXPECT_NEAR(perfect, DramModel(t).peak_bw_gbs(), 0.5);  // bus-limited
}

TEST(DramModel, Validation) {
  DramTiming bad = ddr4_2133_6ch();
  bad.channels = 0;
  EXPECT_THROW(DramModel{bad}, std::invalid_argument);
  DramTiming bad2 = ddr4_2133_6ch();
  bad2.stream_row_hit = 1.5;
  EXPECT_THROW(DramModel{bad2}, std::invalid_argument);
  DramTiming bad3 = ddr4_2133_6ch();
  bad3.tFAW = 0.0;
  EXPECT_THROW(DramModel{bad3}, std::invalid_argument);
}

}  // namespace
}  // namespace knl::sim
