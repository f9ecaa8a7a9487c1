// Tests for the trace-driven timed simulator, including the repository's
// core internal-consistency check: discrete replay vs the analytic
// Little's-law model on the same machine parameters.
#include "sim/trace_machine.hpp"

#include <gtest/gtest.h>

#include "sim/timing_model.hpp"
#include "trace/generators.hpp"

namespace knl::sim {
namespace {

std::vector<std::uint64_t> collect_random(std::uint64_t footprint, std::uint64_t count,
                                          std::uint64_t seed) {
  std::vector<std::uint64_t> addrs;
  addrs.reserve(static_cast<std::size_t>(count));
  trace::generate_uniform_random(0, footprint, count, seed,
                                 [&](std::uint64_t a) { addrs.push_back(a); });
  return addrs;
}

TEST(TraceMachine, L1ResidentLoopCostsL1Latency) {
  TraceMachine machine;
  std::vector<std::uint64_t> addrs;
  for (int rep = 0; rep < 100; ++rep) {
    for (std::uint64_t a = 0; a < 16 * 1024; a += 64) addrs.push_back(a);
  }
  const ReplayStats warm = machine.replay_independent(addrs);
  EXPECT_GT(warm.l1_hits, warm.accesses * 95 / 100);
  // Issue-throughput bound, not latency bound, once resident.
  EXPECT_LT(warm.avg_access_ns(), 2.0 * machine.config().issue_ns + 0.5);
}

TEST(TraceMachine, DependentChaseCostsFullMemoryLatency) {
  // Pointer chase over a buffer far beyond L2, chains=1: each access pays
  // ~ directory + idle DRAM latency (TLB warm at this footprint).
  TraceMachine machine;
  const std::uint64_t slots = 1 << 17;  // 8 MiB of 64 B slots
  const auto next = trace::build_chase_permutation(slots, 3);
  std::vector<std::uint64_t> addrs;
  trace::generate_chase(0, next, 64, 2 * slots, [&](std::uint64_t a) {
    addrs.push_back(a);
  });
  const ReplayStats stats = machine.replay_chained(addrs, 1);

  Mesh mesh;
  const double expected = params::kDdr.idle_latency_ns + mesh.directory_latency_ns() +
                          params::kL2LatencyNs;
  // Some early accesses hit caches during warmup; allow a band.
  EXPECT_NEAR(stats.avg_access_ns(), expected, expected * 0.25);
}

TEST(TraceMachine, DualChaseHalvesApparentLatency) {
  TraceMachine machine;
  const std::uint64_t slots = 1 << 16;
  const auto next = trace::build_chase_permutation(slots, 7);
  std::vector<std::uint64_t> addrs;
  trace::generate_chase(0, next, 64, slots, [&](std::uint64_t a) { addrs.push_back(a); });

  const ReplayStats one = machine.replay_chained(addrs, 1);
  machine.reset();
  const ReplayStats two = machine.replay_chained(addrs, 2);
  EXPECT_NEAR(two.seconds / one.seconds, 0.5, 0.1);
}

TEST(TraceMachine, IndependentRandomThroughputFollowsLittlesLaw) {
  // The headline cross-validation: independent random misses with M MSHRs
  // sustain bandwidth ~ M * line / latency — the exact relation the
  // analytic TimingModel builds on.
  TraceMachineConfig cfg;
  cfg.mshrs = 8;
  TraceMachine machine(cfg);
  const std::uint64_t footprint = 64ull << 20;  // L2-hostile, TLB-warm
  const auto addrs = collect_random(footprint, 400000, 11);
  const ReplayStats stats = machine.replay_independent(addrs);

  Mesh mesh;
  const double miss_lat = params::kDdr.idle_latency_ns + mesh.directory_latency_ns() +
                          params::kL2LatencyNs;
  const double miss_fraction = static_cast<double>(stats.memory_accesses) /
                               static_cast<double>(stats.accesses);
  const double expected_bw =
      8.0 * 64.0 / miss_lat;  // GB/s at 100% miss; scale by observed misses
  EXPECT_NEAR(stats.memory_bandwidth_gbs(), expected_bw, expected_bw * 0.2);
  EXPECT_GT(miss_fraction, 0.9);
}

TEST(TraceMachine, MoreMshrsMoreThroughput) {
  const auto addrs = collect_random(64ull << 20, 200000, 13);
  double prev_seconds = 1e18;
  for (const int mshrs : {1, 2, 4, 8, 16}) {
    TraceMachineConfig cfg;
    cfg.mshrs = mshrs;
    TraceMachine machine(cfg);
    const ReplayStats stats = machine.replay_independent(addrs);
    EXPECT_LT(stats.seconds, prev_seconds) << mshrs;
    prev_seconds = stats.seconds;
  }
}

TEST(TraceMachine, HbmTargetSlowerPerAccessThanDdr) {
  // Single dependent chase: HBM's higher idle latency must show through —
  // the microscopic version of the paper's central random-access result.
  const std::uint64_t slots = 1 << 16;
  const auto next = trace::build_chase_permutation(slots, 5);
  std::vector<std::uint64_t> addrs;
  trace::generate_chase(0, next, 64, slots, [&](std::uint64_t a) { addrs.push_back(a); });

  TraceMachineConfig ddr_cfg;
  TraceMachineConfig hbm_cfg;
  hbm_cfg.node = params::kHbm;
  TraceMachine ddr(ddr_cfg), hbm(hbm_cfg);
  const double d = ddr.replay_chained(addrs, 1).avg_access_ns();
  const double h = hbm.replay_chained(addrs, 1).avg_access_ns();
  EXPECT_GT(h, d * 1.08);
  EXPECT_LT(h, d * 1.25);
}

TEST(TraceMachine, CacheModeHitRateMatchesAnalyticSweepModel) {
  // Replay repeated sweeps through a scaled-down MCDRAM cache and compare
  // the measured hit rate against McdramCacheModel::sweep_hit_rate — but
  // note the analytic curve encodes *physical page scatter* which a
  // contiguous replay lacks, so the sim must sit at or above the model.
  TraceMachineConfig cfg;
  cfg.mcdram_cache_enabled = true;
  cfg.mcdram.capacity_bytes = 8 << 20;
  TraceMachine machine(cfg);

  std::vector<std::uint64_t> warmup;
  trace::generate_sweep(0, 4 << 20, 64, 1, [&](std::uint64_t a) { warmup.push_back(a); });
  (void)machine.replay_independent(warmup);  // cold-fill pass

  std::vector<std::uint64_t> addrs;
  trace::generate_sweep(0, 4 << 20, 64, 4, [&](std::uint64_t a) { addrs.push_back(a); });
  const ReplayStats stats = machine.replay_independent(addrs);
  const double sim_hit = static_cast<double>(stats.mcdram_hits) /
                         static_cast<double>(stats.memory_accesses);
  McdramCacheConfig model_cfg;
  model_cfg.capacity_bytes = 8 << 20;
  const McdramCacheModel model(model_cfg);
  EXPECT_GE(sim_hit + 0.05, model.sweep_hit_rate(4 << 20));
}

TEST(TraceMachine, AnalyticModelTracksReplayOnDependentRandom) {
  // End-to-end cross-validation: the analytic per-access latency for a
  // random phase must match the replayed dependent chase within 25%.
  const std::uint64_t footprint = 32ull << 20;
  const auto next = trace::build_chase_permutation(
      static_cast<std::uint32_t>(footprint / 64), 9);
  std::vector<std::uint64_t> addrs;
  trace::generate_chase(0, next, 64, footprint / 64, [&](std::uint64_t a) {
    addrs.push_back(a);
  });
  TraceMachine machine;
  const double replayed = machine.replay_chained(addrs, 1).avg_access_ns();

  TimingModel analytic;
  trace::AccessPhase phase;
  phase.name = "chase";
  phase.pattern = trace::Pattern::PointerChase;
  phase.footprint_bytes = footprint;
  phase.logical_bytes = static_cast<double>(footprint);
  phase.granule_bytes = 8;
  const double modelled =
      analytic.effective_latency_ns(phase, params::kDdr, params::kDdr, 0.0);
  EXPECT_NEAR(replayed, modelled, modelled * 0.25);
}

TEST(TraceMachine, ResetRestoresColdState) {
  TraceMachine machine;
  std::vector<std::uint64_t> addrs{0, 64, 128};
  (void)machine.replay_independent(addrs);
  machine.reset();
  const ReplayStats stats = machine.replay_independent(addrs);
  EXPECT_EQ(stats.l1_hits, 0u);  // cold again
}

TEST(TraceMachine, Validation) {
  TraceMachineConfig bad;
  bad.mshrs = 0;
  EXPECT_THROW(TraceMachine{bad}, std::invalid_argument);
  TraceMachineConfig bad2;
  bad2.issue_ns = 0.0;
  EXPECT_THROW(TraceMachine{bad2}, std::invalid_argument);
  TraceMachine machine;
  EXPECT_THROW((void)machine.replay_chained({0}, 0), std::invalid_argument);
}

}  // namespace
}  // namespace knl::sim
