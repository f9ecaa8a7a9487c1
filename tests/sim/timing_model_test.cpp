// Tests for the Little's-law timing model — including the calibration
// anchors from the paper that every other result depends on.
#include "sim/timing_model.hpp"

#include <gtest/gtest.h>

#include "core/types.hpp"

namespace knl::sim {
namespace {

trace::AccessPhase stream_phase(std::uint64_t footprint, double sweeps = 10.0) {
  trace::AccessPhase p;
  p.name = "stream";
  p.pattern = trace::Pattern::Sequential;
  p.footprint_bytes = footprint;
  p.logical_bytes = static_cast<double>(footprint) * sweeps;
  p.sweeps = sweeps;
  return p;
}

trace::AccessPhase random_phase(std::uint64_t footprint) {
  trace::AccessPhase p;
  p.name = "random";
  p.pattern = trace::Pattern::Random;
  p.footprint_bytes = footprint;
  p.logical_bytes = 1e9;
  p.granule_bytes = 8;
  return p;
}

/// Time `phase` on the KNL testbed topology with `hbm_fraction` of its pages
/// in MCDRAM and the rest in DDR4.
PhaseTiming time_knl(const TimingModel& model, const trace::AccessPhase& phase,
                     const RunConfig& run, double hbm_fraction) {
  return model.time_phase(phase, run, MemoryTopology::knl7210(),
                          {hbm_fraction, 1.0 - hbm_fraction});
}

double stream_bw(const TimingModel& model, MemConfig config, std::uint64_t footprint,
                 int threads) {
  const auto phase = stream_phase(footprint);
  const auto t = time_knl(model, phase, RunConfig{config, threads},
                          config == MemConfig::HBM ? 1.0 : 0.0);
  return phase.logical_bytes / (t.seconds * 1e9);
}

TEST(TimingModel, StreamAnchorsMatchPaper) {
  TimingModel model;
  // Paper Fig. 2: DRAM 77 GB/s, HBM 330 GB/s at 64 threads.
  EXPECT_NEAR(stream_bw(model, MemConfig::DRAM, 4 * GiB, 64), 77.0, 1.0);
  EXPECT_NEAR(stream_bw(model, MemConfig::HBM, 4 * GiB, 64), 330.0, 5.0);
}

TEST(TimingModel, StreamSmtAnchorsMatchPaperFig5) {
  TimingModel model;
  const double ht1 = stream_bw(model, MemConfig::HBM, 4 * GiB, 64);
  const double ht2 = stream_bw(model, MemConfig::HBM, 4 * GiB, 128);
  const double ht4 = stream_bw(model, MemConfig::HBM, 4 * GiB, 256);
  EXPECT_NEAR(ht2 / ht1, 1.27, 0.02);  // paper: "1.27x the bandwidth"
  EXPECT_NEAR(ht4, 450.0, 15.0);       // paper: "as high as 420-450 GB/s"
  // DRAM saturated at any HT (the four overlapping red lines of Fig. 5).
  EXPECT_NEAR(stream_bw(model, MemConfig::DRAM, 4 * GiB, 64),
              stream_bw(model, MemConfig::DRAM, 4 * GiB, 256), 0.5);
}

TEST(TimingModel, RandomLatencyGapMatchesPaper) {
  // Paper SIV-A: accessing HBM is ~18% slower (15-20% band in Fig. 3).
  TimingModel model;
  const auto phase = random_phase(64 * MiB);
  const double d = model.effective_latency_ns(phase, params::kDdr, params::kDdr, 0.0);
  const double h = model.effective_latency_ns(phase, params::kHbm, params::kDdr, 0.0);
  EXPECT_GT((h - d) / d, 0.10);
  EXPECT_LT((h - d) / d, 0.25);
}

TEST(TimingModel, RandomPatternIsLatencyBoundAndPrefersDram) {
  TimingModel model;
  const auto phase = random_phase(8 * GiB);
  const auto dram = time_knl(model, phase, RunConfig{MemConfig::DRAM, 64}, 0.0);
  const auto hbm = time_knl(model, phase, RunConfig{MemConfig::HBM, 64}, 1.0);
  EXPECT_LT(dram.seconds, hbm.seconds);  // paper's central negative result
  EXPECT_FALSE(dram.bandwidth_bound);
}

TEST(TimingModel, SequentialPatternPrefersHbm) {
  TimingModel model;
  const auto phase = stream_phase(8 * GiB);
  const auto dram = time_knl(model, phase, RunConfig{MemConfig::DRAM, 64}, 0.0);
  const auto hbm = time_knl(model, phase, RunConfig{MemConfig::HBM, 64}, 1.0);
  EXPECT_GT(dram.seconds / hbm.seconds, 3.0);  // ~4x bandwidth ratio
  EXPECT_TRUE(dram.bandwidth_bound);
}

TEST(TimingModel, ThroughputNeverExceedsNodeCap) {
  TimingModel model;
  for (const int threads : {64, 128, 192, 256}) {
    const auto t =
        time_knl(model, stream_phase(4 * GiB), RunConfig{MemConfig::DRAM, threads}, 0.0);
    EXPECT_LE(t.achieved_bw_gbs, params::kDdr.stream_bw_gbs * 1.001);
  }
}

class ThreadMonotonicity : public ::testing::TestWithParam<trace::Pattern> {};

TEST_P(ThreadMonotonicity, TimeNonIncreasingInThreads) {
  TimingModel model;
  trace::AccessPhase phase;
  phase.name = "p";
  phase.pattern = GetParam();
  phase.footprint_bytes = 2 * GiB;
  phase.logical_bytes = 1e9;
  phase.granule_bytes = phase.pattern == trace::Pattern::Random ? 8 : 64;
  if (phase.pattern == trace::Pattern::Strided) phase.stride_bytes = 256;
  if (phase.pattern == trace::Pattern::Compute) {
    phase.footprint_bytes = 0;
    phase.logical_bytes = 0;
    phase.flops = 1e12;
  }
  double prev = 1e300;
  for (const int threads : {64, 128, 192, 256}) {
    const auto t = time_knl(model, phase, RunConfig{MemConfig::DRAM, threads}, 0.0);
    EXPECT_LE(t.seconds, prev * 1.001) << "threads=" << threads;
    prev = t.seconds;
  }
}

INSTANTIATE_TEST_SUITE_P(Patterns, ThreadMonotonicity,
                         ::testing::Values(trace::Pattern::Sequential,
                                           trace::Pattern::Random,
                                           trace::Pattern::PointerChase,
                                           trace::Pattern::Compute));

TEST(TimingModel, StridedRegularityInterpolates) {
  TimingModel model;
  auto make = [](double stride) {
    trace::AccessPhase p;
    p.name = "strided";
    p.pattern = trace::Pattern::Strided;
    p.footprint_bytes = 4 * GiB;
    p.logical_bytes = 1e9;
    p.stride_bytes = stride;
    return p;
  };
  const double small = model.concurrency_lines(make(64), 64);
  const double mid = model.concurrency_lines(make(8 * 1024), 64);
  const double large = model.concurrency_lines(make(1024 * 1024), 64);
  EXPECT_GT(small, mid);
  EXPECT_GT(mid, large);
  // Degenerates to the pattern endpoints.
  EXPECT_NEAR(small, model.concurrency_lines(stream_phase(4 * GiB), 64), 1.0);
  EXPECT_NEAR(large, model.concurrency_lines(random_phase(4 * GiB), 64), 1.0);
}

TEST(TimingModel, SubLineGranuleAmplifiesTraffic) {
  TimingModel model;
  auto p8 = random_phase(8 * GiB);       // 8-byte granules
  auto p64 = random_phase(8 * GiB);
  p64.granule_bytes = 64;
  EXPECT_NEAR(model.memory_traffic_bytes(p8, 64) / model.memory_traffic_bytes(p64, 64),
              8.0, 0.01);
}

TEST(TimingModel, WriteFractionAddsWritebackTraffic) {
  TimingModel model;
  auto ro = stream_phase(8 * GiB, 1.0);
  auto rw = ro;
  rw.write_fraction = 0.5;
  EXPECT_NEAR(model.memory_traffic_bytes(rw, 64) / model.memory_traffic_bytes(ro, 64),
              1.5, 0.01);
}

TEST(TimingModel, L2ResidentSweepGeneratesLittleTraffic) {
  TimingModel model;
  const auto resident = stream_phase(8 * MiB, 10.0);   // fits 32 MiB L2
  const auto streaming = stream_phase(8 * GiB, 10.0);  // far beyond
  const double resident_frac = model.memory_traffic_bytes(resident, 64) /
                               resident.logical_bytes;
  const double streaming_frac = model.memory_traffic_bytes(streaming, 64) /
                                streaming.logical_bytes;
  EXPECT_LT(resident_frac, 0.15);   // ~ first sweep only
  EXPECT_GT(streaming_frac, 0.95);  // every sweep misses
}

TEST(TimingModel, L2HitOverrideWins) {
  TimingModel model;
  auto p = random_phase(8 * MiB);  // would be highly L2-resident
  p.l2_hit_override = 0.0;
  EXPECT_NEAR(model.memory_traffic_bytes(p, 64),
              p.logical_bytes * 8.0 /*amplification*/, 1e6);
}

TEST(TimingModel, ComputeBoundPhaseIgnoresMemoryConfig) {
  TimingModel model;
  trace::AccessPhase p;
  p.name = "flops";
  p.pattern = trace::Pattern::Compute;
  p.flops = 1e12;
  p.compute_efficiency = 1.0;
  const auto dram = time_knl(model, p, RunConfig{MemConfig::DRAM, 64}, 0.0);
  const auto hbm = time_knl(model, p, RunConfig{MemConfig::HBM, 64}, 1.0);
  EXPECT_DOUBLE_EQ(dram.seconds, hbm.seconds);
  EXPECT_TRUE(dram.compute_bound);
  EXPECT_EQ(dram.memory_bytes, 0.0);
}

TEST(TimingModel, CacheModeBandwidthBetweenPurePathsWhenResident) {
  TimingModel model;
  const auto phase = stream_phase(4 * GiB);  // fits MCDRAM
  const auto cache = time_knl(model, phase, RunConfig{MemConfig::CacheMode, 64}, 0.0);
  const auto dram = time_knl(model, phase, RunConfig{MemConfig::DRAM, 64}, 0.0);
  const auto hbm = time_knl(model, phase, RunConfig{MemConfig::HBM, 64}, 1.0);
  EXPECT_LE(cache.seconds, dram.seconds);
  EXPECT_GE(cache.seconds, hbm.seconds * 0.999);
  EXPECT_GT(cache.mcdram_hit_rate, 0.97);
}

TEST(TimingModel, CacheModeDegradesBeyondCapacity) {
  TimingModel model;
  const auto big = stream_phase(static_cast<std::uint64_t>(30e9));
  const auto cache = time_knl(model, big, RunConfig{MemConfig::CacheMode, 64}, 0.0);
  const auto dram = time_knl(model, big, RunConfig{MemConfig::DRAM, 64}, 0.0);
  EXPECT_GT(cache.seconds, dram.seconds);  // the paper's below-DRAM regime
  EXPECT_LT(cache.mcdram_hit_rate, 0.35);
}

TEST(TimingModel, InterleaveSplitsConcurrencyNotDoubles) {
  // A latency-bound phase gains nothing from a 50/50 split (the cores'
  // outstanding requests are the limit, not either controller).
  TimingModel model;
  const auto phase = random_phase(8 * GiB);
  const auto pure = time_knl(model, phase, RunConfig{MemConfig::DRAM, 64}, 0.0);
  const auto split = time_knl(model, phase, RunConfig{MemConfig::DRAM, 64}, 0.5);
  EXPECT_GT(split.seconds, pure.seconds * 0.45);
  EXPECT_LT(split.seconds, pure.seconds * 1.25);
}

TEST(TimingModel, HtPerCoreClampsAndRounds) {
  TimingModel model;
  EXPECT_EQ(model.ht_per_core(1), 1);
  EXPECT_EQ(model.ht_per_core(64), 1);
  EXPECT_EQ(model.ht_per_core(65), 2);
  EXPECT_EQ(model.ht_per_core(256), 4);
  EXPECT_EQ(model.ht_per_core(10000), 4);
  EXPECT_THROW((void)model.ht_per_core(0), std::invalid_argument);
}

TEST(TimingModel, InvalidInputsThrow) {
  TimingModel model;
  const auto phase = stream_phase(1 * GiB);
  EXPECT_THROW((void)time_knl(model, phase, RunConfig{MemConfig::DRAM, 0}, 0.0), std::invalid_argument);
  EXPECT_THROW((void)time_knl(model, phase, RunConfig{MemConfig::DRAM, 64}, 1.5), std::invalid_argument);
  TimingConfig bad;
  bad.cores = 0;
  EXPECT_THROW(TimingModel{bad}, std::invalid_argument);
  TimingConfig bad2;
  bad2.seq_mlp_per_core = -1.0;
  EXPECT_THROW(TimingModel{bad2}, std::invalid_argument);
}

}  // namespace
}  // namespace knl::sim
