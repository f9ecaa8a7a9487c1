// Metamorphic laws of the single timing rule, TimingModel::time_phase, on
// every shipped machine profile. The machine's memory hierarchy is one
// declared topology, so these laws are statements about that description
// alone:
//
//   1. Tier order is a naming choice: declaring the tiers in another order,
//      with the per-tier fractions and backing edges permuted along, times
//      every phase the same.
//   2. An unused tier is invisible: appending a tier that holds no share of
//      the phase times it the same.
//
// Reordering changes which tier absorbs the floating-point remainder of the
// byte split, so values are compared within a relative tolerance of 1e-12
// (a few ulps of the sums involved), and flags exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "core/machine.hpp"
#include "core/machine_profiles.hpp"
#include "core/types.hpp"
#include "sim/timing_model.hpp"
#include "sim/topology.hpp"

namespace knl::sim {
namespace {

constexpr double kRelTolerance = 1e-12;

std::vector<trace::AccessPhase> phases() {
  std::vector<trace::AccessPhase> out;
  trace::AccessPhase stream;
  stream.name = "stream";
  stream.pattern = trace::Pattern::Sequential;
  stream.footprint_bytes = 4 * GiB;
  stream.logical_bytes = 40.0 * static_cast<double>(GiB);
  stream.sweeps = 10.0;
  out.push_back(stream);

  trace::AccessPhase random;
  random.name = "random";
  random.pattern = trace::Pattern::Random;
  random.footprint_bytes = 8 * GiB;
  random.logical_bytes = 1e9;
  random.granule_bytes = 8;
  out.push_back(random);

  trace::AccessPhase chase;
  chase.name = "chase";
  chase.pattern = trace::Pattern::PointerChase;
  chase.footprint_bytes = 1 * GiB;
  chase.logical_bytes = 1e8;
  chase.granule_bytes = 8;
  chase.chains_per_thread = 2;
  out.push_back(chase);

  trace::AccessPhase strided;
  strided.name = "strided";
  strided.pattern = trace::Pattern::Strided;
  strided.footprint_bytes = 2 * GiB;
  strided.logical_bytes = 4e9;
  strided.stride_bytes = 8 * 1024;
  strided.write_fraction = 0.5;
  out.push_back(strided);

  trace::AccessPhase compute = stream;
  compute.name = "stream+flops";
  compute.flops = 1e12;
  out.push_back(compute);
  return out;
}

std::vector<RunConfig> runs() {
  std::vector<RunConfig> out;
  for (const MemConfig config : {MemConfig::DRAM, MemConfig::HBM, MemConfig::CacheMode}) {
    for (const int threads : {64, 256}) out.push_back(RunConfig{config, threads});
  }
  return out;
}

/// Fraction vectors over `n` tiers: all on each tier, an even split, and a
/// skewed split over the first two tiers.
std::vector<std::vector<double>> fraction_sets(std::size_t n) {
  std::vector<std::vector<double>> out;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> unit(n, 0.0);
    unit[i] = 1.0;
    out.push_back(unit);
  }
  out.emplace_back(n, 1.0 / static_cast<double>(n));
  std::vector<double> skewed(n, 0.0);
  skewed[0] = 0.7;
  skewed[1] = 0.3;
  out.push_back(skewed);
  return out;
}

/// `topology` with new tier i = old tier order[i]; backing edges follow
/// their tiers.
MemoryTopology permuted(const MemoryTopology& topology, const std::vector<int>& order) {
  std::vector<int> new_index(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    new_index[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
  }
  MemoryTopology out = topology;
  out.tiers.clear();
  for (const int old : order) {
    MemoryTier tier = topology.tier(static_cast<std::size_t>(old));
    if (tier.backing != -1) tier.backing = new_index[static_cast<std::size_t>(tier.backing)];
    out.tiers.push_back(tier);
  }
  out.validate();
  return out;
}

std::vector<double> permuted(const std::vector<double>& fractions,
                             const std::vector<int>& order) {
  std::vector<double> out;
  for (const int old : order) out.push_back(fractions[static_cast<std::size_t>(old)]);
  return out;
}

void expect_near(double a, double b, const std::string& what, const std::string& label) {
  EXPECT_LE(std::abs(a - b), kRelTolerance * std::max(std::abs(a), std::abs(b)))
      << what << " " << a << " vs " << b << " (" << label << ")";
}

void expect_same_timing(const PhaseTiming& a, const PhaseTiming& b, const std::string& label) {
  expect_near(a.seconds, b.seconds, "seconds", label);
  expect_near(a.memory_bytes, b.memory_bytes, "memory_bytes", label);
  expect_near(a.effective_latency_ns, b.effective_latency_ns, "effective_latency_ns", label);
  expect_near(a.achieved_bw_gbs, b.achieved_bw_gbs, "achieved_bw_gbs", label);
  expect_near(a.concurrency_lines, b.concurrency_lines, "concurrency_lines", label);
  expect_near(a.mcdram_hit_rate, b.mcdram_hit_rate, "mcdram_hit_rate", label);
  EXPECT_EQ(a.bandwidth_bound, b.bandwidth_bound) << "bandwidth_bound (" << label << ")";
  EXPECT_EQ(a.compute_bound, b.compute_bound) << "compute_bound (" << label << ")";
}

std::string label_of(const MachineProfile& profile, const trace::AccessPhase& phase,
                     const RunConfig& run, const std::vector<double>& fractions) {
  // Built by appending only: gcc 12 at -O3 reports a false -Wrestrict in
  // the inlined copy of a `std::string + ...` chain.
  std::string label = profile.name;
  label += ' ';
  label += phase.name;
  label += ' ';
  label += to_string(run.config);
  label += '@';
  label += std::to_string(run.threads);
  label += " fractions";
  for (const double f : fractions) {
    label += ' ';
    label += std::to_string(f);
  }
  return label;
}

TEST(TimingInvariant, TierOrderDoesNotChangeTiming) {
  for (const MachineProfile& profile : machine_profiles()) {
    const Machine machine(profile.make());
    const MemoryTopology& topology = machine.memory_topology();
    std::vector<int> order(topology.tier_count());
    std::iota(order.begin(), order.end(), 0);
    while (std::next_permutation(order.begin(), order.end())) {
      const MemoryTopology reordered = permuted(topology, order);
      for (const std::vector<double>& fractions : fraction_sets(topology.tier_count())) {
        for (const trace::AccessPhase& phase : phases()) {
          for (const RunConfig& run : runs()) {
            const std::string label = label_of(profile, phase, run, fractions) +
                                      " order " + reordered.tier_names();
            expect_same_timing(
                machine.timing().time_phase(phase, run, topology, fractions),
                machine.timing().time_phase(phase, run, reordered, permuted(fractions, order)),
                label);
          }
        }
      }
    }
  }
}

TEST(TimingInvariant, ZeroShareTierDoesNotChangeTiming) {
  for (const MachineProfile& profile : machine_profiles()) {
    const Machine machine(profile.make());
    const MemoryTopology& topology = machine.memory_topology();
    int controllers = 0;
    for (const MemoryTier& tier : topology.tiers) {
      controllers = std::max(controllers, tier.controllers_end);
    }
    MemoryTopology extended = topology;
    extended.tiers.push_back(MemoryTier{.name = "FAR",
                                        .kind = TierKind::NVM,
                                        .params = params::NodeParams{.capacity_bytes = 64 * GiB,
                                                                     .peak_bw_gbs = 10.0,
                                                                     .stream_bw_gbs = 8.0,
                                                                     .random_bw_gbs = 2.0,
                                                                     .idle_latency_ns = 500.0},
                                        .controllers_begin = controllers,
                                        .controllers_end = controllers + 1});
    extended.validate();
    for (const std::vector<double>& fractions : fraction_sets(topology.tier_count())) {
      std::vector<double> with_zero = fractions;
      with_zero.push_back(0.0);
      for (const trace::AccessPhase& phase : phases()) {
        for (const RunConfig& run : runs()) {
          expect_same_timing(machine.timing().time_phase(phase, run, topology, fractions),
                             machine.timing().time_phase(phase, run, extended, with_zero),
                             label_of(profile, phase, run, fractions) + " + FAR");
        }
      }
    }
  }
}

}  // namespace
}  // namespace knl::sim
