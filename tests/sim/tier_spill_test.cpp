// N-tier timing and spill tests.
//
// On three tiers, the waterfall spill path (HBM -> DDR -> NVM) is validated
// against hand-computed references, and a chaos drill replays a capacity
// sweep on a tiered machine under injected faults to confirm determinism
// holds there too. Two-tier results are pinned by the goldens and by
// tests/core/result_digest_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/fault/fault_injection.hpp"
#include "core/machine.hpp"
#include "core/machine_config.hpp"
#include "core/types.hpp"
#include "report/sweep.hpp"
#include "sim/timing_model.hpp"
#include "sim/topology.hpp"
#include "workloads/stream.hpp"

namespace knl::sim {
namespace {

trace::AccessPhase stream_phase(std::uint64_t footprint) {
  trace::AccessPhase p;
  p.name = "stream";
  p.pattern = trace::Pattern::Sequential;
  p.footprint_bytes = footprint;
  p.logical_bytes = static_cast<double>(footprint) * 10.0;
  p.sweeps = 10.0;
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

void expect_bit_identical(const PhaseTiming& a, const PhaseTiming& b,
                          const std::string& label) {
  EXPECT_EQ(a.seconds, b.seconds) << label;
  EXPECT_EQ(a.memory_bytes, b.memory_bytes) << label;
  EXPECT_EQ(a.effective_latency_ns, b.effective_latency_ns) << label;
  EXPECT_EQ(a.achieved_bw_gbs, b.achieved_bw_gbs) << label;
  EXPECT_EQ(a.concurrency_lines, b.concurrency_lines) << label;
  EXPECT_EQ(a.mcdram_hit_rate, b.mcdram_hit_rate) << label;
  EXPECT_EQ(a.bandwidth_bound, b.bandwidth_bound) << label;
  EXPECT_EQ(a.compute_bound, b.compute_bound) << label;
}

TEST(TierTiming, TieredValidatesItsInputs) {
  const TimingModel model;
  const MemoryTopology knl = MemoryTopology::knl7210();
  const auto phase = stream_phase(1 * GiB);
  const RunConfig run{MemConfig::DRAM, 64};
  EXPECT_THROW((void)model.time_phase(phase, run, knl, {1.0}),
               std::invalid_argument);  // wrong arity
  EXPECT_THROW((void)model.time_phase(phase, run, knl, {0.9, 0.9}),
               std::invalid_argument);  // sum != 1
  EXPECT_THROW((void)model.time_phase(phase, run, knl, {-0.5, 1.5}),
               std::invalid_argument);  // out of range
}

// ---------------------------------------------------------------------------
// Three-tier timing: hand-computed references
// ---------------------------------------------------------------------------

TEST(TierTiming, AllBytesOnNvmTierMatchesSingleNodeReference) {
  // Placing 100% on the NVM tier must time exactly like a two-tier machine
  // whose first tier is the NVM envelope, with every byte there — both
  // reduce to one time_on_node call with conc_share 1, whatever the tier's
  // position in the topology.
  const MemoryTopology nvm = MemoryTopology::knl_nvm();
  MemoryTopology nvm_first = MemoryTopology::knl7210();
  nvm_first.tiers[0].params = nvm.tier(2).params;
  const TimingModel model;
  for (const auto& phase : {stream_phase(4 * GiB), random_phase(64 * MiB)}) {
    const RunConfig run{MemConfig::DRAM, 64};
    const PhaseTiming tiered = model.time_phase(phase, run, nvm, {0.0, 0.0, 1.0});
    const PhaseTiming reference = model.time_phase(phase, run, nvm_first, {1.0, 0.0});
    expect_bit_identical(tiered, reference, phase.name);
  }
}

TEST(TierTiming, NvmShareDominatesOnceItsDrainTimeExceedsDdr) {
  // Flat tiers drain concurrently (seconds = max over tiers). A *small* NVM
  // spill therefore speeds the phase up — the DDR share shrinks while the
  // NVM share is still cheap (at 5%: 0.05/15 < 0.95/77 of a GB-normalized
  // second). The slowdown only kicks in once the NVM drain time crosses
  // DDR's, i.e. past share s where s/15 = (1-s)/77 → s ≈ 0.163 — and from
  // there it grows monotonically with the share.
  const MemoryTopology nvm = MemoryTopology::knl_nvm();
  const TimingModel model;
  const auto phase = stream_phase(4 * GiB);
  const RunConfig run{MemConfig::DRAM, 64};
  const auto seconds_at = [&](double nvm_share) {
    return model.time_phase(phase, run, nvm, {0.0, 1.0 - nvm_share, nvm_share})
        .seconds;
  };
  const double all_ddr = seconds_at(0.0);

  // Below the crossover the DDR share still dominates and has shrunk.
  EXPECT_LT(seconds_at(0.05), all_ddr);
  // Past the crossover, NVM dominates and each extra share slows the run.
  double previous = all_ddr;
  for (const double nvm_share : {0.2, 0.5, 0.8, 1.0}) {
    const double seconds = seconds_at(nvm_share);
    EXPECT_GT(seconds, previous) << "nvm_share=" << nvm_share;
    previous = seconds;
  }
  // And the magnitude is right: 15 GB/s vs 77 GB/s means half the bytes on
  // NVM takes > 2x the all-DDR drain (0.5 * 77 / 15 ≈ 2.6x).
  EXPECT_GT(seconds_at(0.5), 2.0 * all_ddr);
}

// ---------------------------------------------------------------------------
// Machine-level waterfall spill accounting
// ---------------------------------------------------------------------------

TEST(TierSpill, DdrOverflowSpillsToNvmInsteadOfFailing) {
  // 100 GiB exceeds the 96 GiB DDR4 tier. The two-tier KNL machine must
  // refuse it; the NVM machine spills the 4 GiB remainder down the chain.
  const auto profile = workloads::StreamTriad(100 * GiB).profile();
  const RunConfig run{MemConfig::DRAM, 64};

  const Machine knl;
  const RunResult refused = knl.run(profile, run);
  EXPECT_FALSE(refused.feasible);

  const Machine nvm_machine(MachineConfig::knl_nvm());
  EXPECT_EQ(nvm_machine.memory_topology().tier_count(), 3u);
  const RunResult spilled = nvm_machine.run(profile, run);
  ASSERT_TRUE(spilled.feasible) << spilled.infeasible_reason;
  EXPECT_GT(spilled.seconds, 0.0);

  // Hand-computed reference: the waterfall puts 96/100 of the footprint in
  // DDR4 and 4/100 in NVM, and the machine times exactly those fractions.
  std::vector<double> fractions(3, 0.0);
  fractions[1] = 96.0 / 100.0;
  fractions[2] = 1.0 - fractions[1];
  const TimingModel model;
  double expected_seconds = 0.0;
  for (const auto& phase : profile.phases()) {
    expected_seconds +=
        model
            .time_phase(phase, run, nvm_machine.memory_topology(), fractions)
            .seconds;
  }
  EXPECT_DOUBLE_EQ(spilled.seconds, expected_seconds);
}

TEST(TierSpill, HbmMembindStaysStrictOnTieredMachines) {
  // membind=1 never spills: a footprint over 16 GiB is infeasible on the
  // NVM machine exactly as on the KNL machine.
  const auto profile = workloads::StreamTriad(32 * GiB).profile();
  const Machine nvm_machine(MachineConfig::knl_nvm());
  const RunResult result = nvm_machine.run(profile, RunConfig{MemConfig::HBM, 64});
  EXPECT_FALSE(result.feasible);
  EXPECT_NE(result.infeasible_reason.find("membind"), std::string::npos)
      << result.infeasible_reason;
}

TEST(TierSpill, PreferredPlacementWaterfallsFromTheFastTier) {
  // --preferred=1 on 20 GiB: 16 GiB lands in MCDRAM, 4 GiB spills to DDR —
  // faster than all-DDR for a stream workload, slower than a fitting
  // all-HBM run.
  const auto profile = workloads::StreamTriad(20 * GiB).profile();
  const Machine nvm_machine(MachineConfig::knl_nvm());
  const RunResult preferred =
      nvm_machine.run_flat_placement(profile, 64, Placement::Preferred);
  ASSERT_TRUE(preferred.feasible) << preferred.infeasible_reason;
  const RunResult all_ddr = nvm_machine.run_flat_placement(profile, 64, Placement::DDR);
  ASSERT_TRUE(all_ddr.feasible) << all_ddr.infeasible_reason;
  EXPECT_LT(preferred.seconds, all_ddr.seconds);
}

TEST(TierSpill, InterleaveCoversAllTiersAndHasACapacityCeiling) {
  const Machine nvm_machine(MachineConfig::knl_nvm());
  // 16 + 96 + 512 GiB = 624 GiB total: 600 GiB interleaves, 700 GiB cannot.
  const auto fits = workloads::StreamTriad(600 * GiB).profile();
  EXPECT_TRUE(
      nvm_machine.run_flat_placement(fits, 64, Placement::Interleave).feasible);
  const auto overflows = workloads::StreamTriad(700 * GiB).profile();
  const RunResult refused =
      nvm_machine.run_flat_placement(overflows, 64, Placement::Interleave);
  EXPECT_FALSE(refused.feasible);
  EXPECT_NE(refused.infeasible_reason.find("interleave"), std::string::npos)
      << refused.infeasible_reason;
}

TEST(TierSpill, CacheModeOnThreeTiersStaysFeasibleWithinDdr) {
  // Cache mode routes the DDR share through the MCDRAM front; a fitting
  // footprint behaves like the two-tier machine's cache mode.
  const auto profile = workloads::StreamTriad(8 * GiB).profile();
  const Machine knl;
  const Machine nvm_machine(MachineConfig::knl_nvm());
  const RunConfig run{MemConfig::CacheMode, 64};
  const RunResult two_tier = knl.run(profile, run);
  const RunResult three_tier = nvm_machine.run(profile, run);
  ASSERT_TRUE(two_tier.feasible);
  ASSERT_TRUE(three_tier.feasible);
  EXPECT_DOUBLE_EQ(three_tier.seconds, two_tier.seconds);
  EXPECT_DOUBLE_EQ(three_tier.mcdram_hit_rate, two_tier.mcdram_hit_rate);
}

// ---------------------------------------------------------------------------
// Chaos drill: fault injection on a tiered machine
// ---------------------------------------------------------------------------

TEST(TierSpill, ChaosDrillCapacitySweepOnTieredMachineIsDeterministic) {
  // The existing fault-plan sites (sweep-cell and the profiling-pass key
  // space) must behave identically when the machine under the sweep is a
  // three-tier topology: transient faults retry to bit-identical cells.
  report::SweepCache::instance().clear();
  report::SweepCache::instance().reset_stats();
  const Machine nvm_machine(MachineConfig::knl_nvm());
  report::CapacityGrid grid;
  grid.line_bytes = 64;
  grid.num_sets = 64;
  grid.synth.max_addresses = 1u << 16;
  for (const std::uint64_t ways : {1ull, 4ull, 16ull}) {
    grid.capacities_bytes.push_back(ways * grid.line_bytes * grid.num_sets);
  }
  const report::SweepOptions options{
      .memoize = false,
      .retry = fault::RetryPolicy{.max_attempts = 3, .base_delay_ms = 0.01}};
  const auto run_once = [&] {
    return report::sweep_capacities_run(
        nvm_machine, workloads::StreamTriad(1 << 20).profile(), 64, grid,
        report::Figure("tiered capacity", "GB", ""), options);
  };
  const report::CapacitySweepRun clean = run_once();
  ASSERT_TRUE(clean.failures.empty());

  const fault::ScopedFaultPlan scope(fault::FaultPlan::parse(
      "seed=11;site=sweep-cell,key=1048576,kind=transient,attempts=1;"
      "site=sweep-cell,key=1,kind=transient,attempts=1"));
  const report::CapacitySweepRun faulted = run_once();
  EXPECT_TRUE(faulted.failures.empty());
  EXPECT_GE(faulted.stats.retries, 1u);
  ASSERT_EQ(faulted.cells.size(), clean.cells.size());
  for (std::size_t i = 0; i < clean.cells.size(); ++i) {
    EXPECT_EQ(faulted.cells[i].hit_rate, clean.cells[i].hit_rate) << i;
    EXPECT_EQ(faulted.cells[i].seconds, clean.cells[i].seconds) << i;
  }
  report::SweepCache::instance().clear();
  report::SweepCache::instance().reset_stats();
}

// ---------------------------------------------------------------------------
// Topology-derived capacity axes (report::default_capacity_axis)
// ---------------------------------------------------------------------------

TEST(TierSpill, DefaultCapacityAxisSpansTheCacheFrontTier) {
  const MemoryTopology knl = MemoryTopology::knl7210();
  const std::uint64_t set_bytes = 64ull * (1ull << 15);
  const auto axis = report::default_capacity_axis(knl, set_bytes, 8);
  ASSERT_FALSE(axis.empty());
  EXPECT_EQ(axis.back(), 16 * GiB);  // full MCDRAM capacity, exactly aligned
  EXPECT_EQ(axis.size(), 8u);
  for (std::size_t i = 0; i < axis.size(); ++i) {
    EXPECT_EQ(axis[i] % set_bytes, 0u) << i;
    if (i > 0) {
      EXPECT_GT(axis[i], axis[i - 1]) << i;
    }
  }
  // The Xeon Max front tier is 4x larger; its axis tops out there.
  const auto xeon_axis =
      report::default_capacity_axis(MemoryTopology::xeon_max(), set_bytes, 8);
  EXPECT_EQ(xeon_axis.back(), 64 * GiB);
}

TEST(TierSpill, DefaultCapacityGridUsesTheDefaultGeometry) {
  const report::CapacityGrid grid =
      report::default_capacity_grid(MemoryTopology::knl7210());
  EXPECT_EQ(grid.capacities_bytes.size(), 8u);
  EXPECT_EQ(grid.capacities_bytes.back(), 16 * GiB);
  EXPECT_EQ(grid.line_bytes, 64u);
  EXPECT_EQ(grid.num_sets, 1ull << 15);
}

}  // namespace
}  // namespace knl::sim
