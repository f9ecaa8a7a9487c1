// Tests for the Machine facade: feasibility rules, run orchestration, the
// alternative placements and hybrid mode.
#include "core/machine.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "core/fault/error.hpp"
#include "workloads/gups.hpp"
#include "workloads/minife.hpp"
#include "workloads/registry.hpp"
#include "workloads/stream.hpp"

namespace knl {
namespace {

trace::AccessProfile profile_of_bytes(std::uint64_t bytes) {
  trace::AccessProfile p("test");
  trace::AccessPhase phase;
  phase.name = "sweep";
  phase.pattern = trace::Pattern::Sequential;
  phase.footprint_bytes = bytes;
  phase.logical_bytes = static_cast<double>(bytes);
  p.add(phase);
  return p;
}

TEST(Machine, HbmRunInfeasibleBeyondCapacity) {
  Machine machine;
  // Paper: "No measurements for HBM in flat mode when the problem size
  // exceeds its capacity" — 17 GiB > 16 GiB must be rejected.
  const auto r = machine.run(profile_of_bytes(17 * GiB), RunConfig{MemConfig::HBM, 64});
  EXPECT_FALSE(r.feasible);
  EXPECT_NE(r.infeasible_reason.find("membind"), std::string::npos);
  // 15 GiB fits.
  EXPECT_TRUE(
      machine.run(profile_of_bytes(15 * GiB), RunConfig{MemConfig::HBM, 64}).feasible);
}

TEST(Machine, DramRunInfeasibleBeyond96GiB) {
  Machine machine;
  EXPECT_FALSE(
      machine.run(profile_of_bytes(97 * GiB), RunConfig{MemConfig::DRAM, 64}).feasible);
  // XSBench's 90 GB must fit (Table I's largest problem).
  EXPECT_TRUE(machine
                  .run(profile_of_bytes(static_cast<std::uint64_t>(90e9)),
                       RunConfig{MemConfig::DRAM, 64})
                  .feasible);
}

TEST(Machine, CacheModeCapacityIsDdr) {
  Machine machine;
  EXPECT_TRUE(machine.run(profile_of_bytes(30 * GiB), RunConfig{MemConfig::CacheMode, 64})
                  .feasible);
  EXPECT_FALSE(
      machine.run(profile_of_bytes(97 * GiB), RunConfig{MemConfig::CacheMode, 64})
          .feasible);
}

TEST(Machine, RunAccumulatesAcrossPhases) {
  Machine machine;
  trace::AccessProfile p("two-phase");
  trace::AccessPhase a;
  a.name = "a";
  a.pattern = trace::Pattern::Sequential;
  a.footprint_bytes = 2 * GiB;
  a.logical_bytes = 2e9;
  trace::AccessPhase b = a;
  b.name = "b";
  p.add(a).add(b);

  const auto detailed = machine.run_detailed(p, RunConfig{MemConfig::DRAM, 64});
  ASSERT_EQ(detailed.phases.size(), 2u);
  EXPECT_NEAR(detailed.summary.seconds,
              detailed.phases[0].timing.seconds + detailed.phases[1].timing.seconds,
              1e-12);
  EXPECT_GT(detailed.summary.achieved_bw_gbs, 0.0);
}

TEST(Machine, TopologyFollowsMemConfig) {
  Machine machine;
  EXPECT_EQ(machine.topology(MemConfig::DRAM).num_nodes(), 2);
  EXPECT_EQ(machine.topology(MemConfig::HBM).num_nodes(), 2);
  EXPECT_EQ(machine.topology(MemConfig::CacheMode).num_nodes(), 1);
}

TEST(Machine, FlatPlacementInterleaveFeasibleBeyondEitherNode) {
  Machine machine;
  // 100 GiB exceeds DDR alone but fits DDR+MCDRAM interleaved — the paper's
  // SIV-C point about running problems larger than either memory.
  const auto p = profile_of_bytes(100 * GiB);
  EXPECT_FALSE(machine.run(p, RunConfig{MemConfig::DRAM, 64}).feasible);
  EXPECT_TRUE(machine.run_flat_placement(p, 64, Placement::Interleave).feasible);
}

TEST(Machine, FlatPlacementPreferredMatchesSpillFraction) {
  Machine machine;
  const auto p = profile_of_bytes(32 * GiB);
  const auto r = machine.run_flat_placement(p, 64, Placement::Preferred);
  EXPECT_TRUE(r.feasible);
  const auto strict = machine.run_flat_placement(p, 64, Placement::HBM);
  EXPECT_FALSE(strict.feasible);
}

TEST(Machine, HybridFullCacheEqualsCacheMode) {
  Machine machine;
  const auto minife = workloads::MiniFe::from_footprint(20 * GiB);
  const auto p = minife.profile();
  const auto hybrid = machine.run_hybrid(p, 64, /*cache_fraction=*/1.0,
                                         /*flat_hbm_bytes=*/0);
  const auto cache = machine.run(p, RunConfig{MemConfig::CacheMode, 64});
  ASSERT_TRUE(hybrid.feasible);
  EXPECT_NEAR(hybrid.seconds, cache.seconds, cache.seconds * 0.01);
}

TEST(Machine, HybridRejectsOversizedFlatRequest) {
  Machine machine;
  const auto p = profile_of_bytes(20 * GiB);
  const auto r = machine.run_hybrid(p, 64, 0.5, 12 * GiB);  // flat part only 8 GiB
  EXPECT_FALSE(r.feasible);
}

TEST(Machine, HybridValidatesFraction) {
  Machine machine;
  const auto p = profile_of_bytes(1 * GiB);
  EXPECT_THROW((void)machine.run_hybrid(p, 64, -0.1, 0), std::invalid_argument);
  EXPECT_THROW((void)machine.run_hybrid(p, 64, 1.5, 0), std::invalid_argument);
}

TEST(Machine, HybridBeatsAllDramWhenHotDataFitsFlat) {
  Machine machine;
  const auto minife = workloads::MiniFe::from_footprint(24 * GiB);
  const auto p = minife.profile();
  const auto dram = machine.run(p, RunConfig{MemConfig::DRAM, 64});
  const auto hybrid = machine.run_hybrid(p, 64, 0.25, 8 * GiB);
  ASSERT_TRUE(dram.feasible && hybrid.feasible);
  EXPECT_LT(hybrid.seconds, dram.seconds);
}

TEST(Machine, InvalidRunConfigThrows) {
  Machine machine;
  EXPECT_THROW((void)machine.run(profile_of_bytes(GiB), RunConfig{MemConfig::DRAM, 0}),
               std::invalid_argument);
}

TEST(Machine, RunThreadsMatchesRun) {
  // One placement for every thread count gives each count exactly what a
  // separate run gives: every number bit for bit, and the same infeasible
  // reason text, across the registry workloads on both sides of each
  // machine's fast-tier and DDR capacities.
  const std::vector<int> threads = {1, 64, 100, 128, 191, 192, 256, 300};
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const MachineConfig& cfg :
       {MachineConfig::knl7210(), MachineConfig::xeon_max(), MachineConfig::knl_nvm()}) {
    const Machine machine(cfg);
    for (const auto& entry : workloads::registry()) {
      for (const std::uint64_t bytes : {64 * MiB, 8 * GiB, 17 * GiB, 65 * GiB, 97 * GiB}) {
        const trace::AccessProfile profile = entry.make(bytes)->profile();
        for (const MemConfig config :
             {MemConfig::DRAM, MemConfig::HBM, MemConfig::CacheMode}) {
          const std::vector<RunResult> runs = machine.run_threads(profile, config, threads);
          ASSERT_EQ(runs.size(), threads.size());
          for (std::size_t i = 0; i < threads.size(); ++i) {
            SCOPED_TRACE(cfg.topology.name + " " + entry.info.name + " " + std::to_string(bytes) + " " +
                         to_string(config) + " @" + std::to_string(threads[i]));
            const RunResult one = machine.run(profile, RunConfig{config, threads[i]});
            const RunResult& r = runs[i];
            EXPECT_EQ(bits(r.seconds), bits(one.seconds));
            EXPECT_EQ(bits(r.bytes_from_memory), bits(one.bytes_from_memory));
            EXPECT_EQ(bits(r.flops), bits(one.flops));
            EXPECT_EQ(bits(r.avg_latency_ns), bits(one.avg_latency_ns));
            EXPECT_EQ(bits(r.achieved_bw_gbs), bits(one.achieved_bw_gbs));
            EXPECT_EQ(bits(r.mcdram_hit_rate), bits(one.mcdram_hit_rate));
            EXPECT_EQ(r.feasible, one.feasible);
            EXPECT_EQ(r.infeasible_reason, one.infeasible_reason);
          }
        }
      }
    }
  }
  EXPECT_THROW((void)Machine().run_threads(profile_of_bytes(GiB), MemConfig::DRAM, {64, 0}),
               std::invalid_argument);
}

TEST(Machine, ConfigValidationRejectsABadTierEnvelope) {
  MachineConfig cfg;
  cfg.fast_tier().peak_bw_gbs = 0.0;
  try {
    (void)Machine{cfg};
    FAIL() << "a zero-bandwidth tier must be rejected";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), "topology/bad-envelope");
  }
}

TEST(Machine, DdrOnlyMachineRejectsHbmRuns) {
  Machine machine(MachineConfig::ddr_only());
  const auto r = machine.run(profile_of_bytes(GiB), RunConfig{MemConfig::HBM, 64});
  EXPECT_FALSE(r.feasible);
}

TEST(Machine, EqualLatencyMachineRemovesRandomAccessPenalty) {
  Machine real;
  Machine equal(MachineConfig::knl7210_equal_latency());
  const workloads::Gups gups(4 * GiB);
  const auto p = gups.profile();
  const auto dram = real.run(p, RunConfig{MemConfig::DRAM, 64});
  const auto hbm_equal = equal.run(p, RunConfig{MemConfig::HBM, 64});
  EXPECT_NEAR(hbm_equal.seconds, dram.seconds, dram.seconds * 0.02);
}

}  // namespace
}  // namespace knl
