// Result digests: the bit patterns of model outputs that no golden covers.
//
// The 42 goldens pin knl7210, xeon_max and knl_nvm through the experiment
// registry. These digests pin the rest of the model surface: Machine runs
// on the other presets across the registry workloads, sizes straddling
// every capacity edge, the three paper configurations and 1..256 threads,
// plus the hybrid-mode path on knl7210 and the per-structure placement
// path on knl7210 and knl_nvm (whose NVM tier that path never uses, so both
// machines share one digest). Each digest is FNV-1a over the raw bytes of
// every numeric output, so a refactor of the timing or placement code that
// moves any result by even one ulp fails here.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "core/machine.hpp"
#include "core/machine_config.hpp"
#include "core/placement_plan.hpp"
#include "workloads/registry.hpp"

namespace knl {
namespace {

class Digest {
 public:
  template <typename T>
  void add(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      h_ ^= b;
      h_ *= 1099511628211ull;
    }
  }

  void add(const RunResult& r) {
    add(r.seconds);
    add(r.bytes_from_memory);
    add(r.flops);
    add(r.avg_latency_ns);
    add(r.achieved_bw_gbs);
    add(r.mcdram_hit_rate);
    add(r.feasible);
  }

  void add(const sim::PhaseTiming& t) {
    add(t.seconds);
    add(t.memory_bytes);
    add(t.effective_latency_ns);
    add(t.achieved_bw_gbs);
    add(t.concurrency_lines);
    add(t.mcdram_hit_rate);
    add(t.bandwidth_bound);
    add(t.compute_bound);
  }

  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
    return buf;
  }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

// Footprints on both sides of the 16 GiB MCDRAM and 96 GiB DDR capacities.
const std::vector<std::uint64_t>& sizes() {
  static const std::vector<std::uint64_t> kSizes = {
      64 * MiB, 512 * MiB, 2 * GiB,  8 * GiB,  15 * GiB,
      17 * GiB, 24 * GiB,  48 * GiB, 95 * GiB, 128 * GiB};
  return kSizes;
}

constexpr int kThreads[] = {1, 64, 128, 192, 256};

std::vector<trace::AccessProfile> registry_profiles() {
  std::vector<trace::AccessProfile> profiles;
  for (const auto& entry : workloads::registry()) {
    for (const std::uint64_t bytes : sizes()) {
      profiles.push_back(entry.make(bytes)->profile());
    }
  }
  return profiles;
}

/// Profiles whose resident set sits exactly on, or one byte past, a
/// capacity edge of `cfg`.
std::vector<trace::AccessProfile> edge_profiles(const MachineConfig& cfg) {
  std::vector<trace::AccessProfile> profiles;
  for (const std::uint64_t cap :
       {cfg.fast_tier().capacity_bytes, cfg.dram_tier().capacity_bytes}) {
    for (const std::uint64_t resident : {cap, cap + 1}) {
      trace::AccessProfile p("edge");
      trace::AccessPhase phase;
      phase.name = "stream";
      phase.pattern = trace::Pattern::Sequential;
      phase.footprint_bytes = resident;
      phase.logical_bytes = 4.0 * static_cast<double>(resident);
      phase.sweeps = 4.0;
      p.add(phase);
      p.set_resident_bytes(resident);
      profiles.push_back(p);
    }
  }
  return profiles;
}

std::string machine_run_digest(const MachineConfig& cfg) {
  const Machine machine(cfg);
  std::vector<trace::AccessProfile> profiles = registry_profiles();
  for (auto& p : edge_profiles(cfg)) profiles.push_back(std::move(p));
  Digest d;
  for (const auto& profile : profiles) {
    for (const MemConfig config : {MemConfig::DRAM, MemConfig::HBM, MemConfig::CacheMode}) {
      for (const int threads : kThreads) {
        const DetailedRunResult r = machine.run_detailed(profile, RunConfig{config, threads});
        d.add(r.summary);
        for (const PhaseReport& phase : r.phases) d.add(phase.timing);
      }
    }
  }
  return d.hex();
}

TEST(ResultDigest, MachineRunOnEqualLatencyKnl) {
  EXPECT_EQ(machine_run_digest(MachineConfig::knl7210_equal_latency()), "c7e33e74da510851");
}

TEST(ResultDigest, MachineRunOnSnc4Knl) {
  EXPECT_EQ(machine_run_digest(MachineConfig::knl7210_snc4()), "b84407bca13b83ab");
}

TEST(ResultDigest, MachineRunOnDdrOnly) {
  EXPECT_EQ(machine_run_digest(MachineConfig::ddr_only()), "0780dc91013e3e6d");
}

TEST(ResultDigest, HybridModeOnKnl) {
  const Machine machine;
  Digest d;
  for (const auto& profile : registry_profiles()) {
    for (const double cache_fraction : {0.0, 0.25, 0.5, 1.0}) {
      for (const std::uint64_t flat : {std::uint64_t{0}, 2 * GiB, 8 * GiB, 16 * GiB}) {
        for (const int threads : kThreads) {
          d.add(machine.run_hybrid(profile, threads, cache_fraction, flat));
        }
      }
    }
  }
  EXPECT_EQ(d.hex(), "a49486f718fe6d59");
}

std::string placer_digest(const MachineConfig& cfg) {
  const Machine machine(cfg);
  const FineGrainedPlacer placer(machine);
  Digest d;
  for (const auto& profile : registry_profiles()) {
    for (const int threads : kThreads) {
      const PlanOutcome outcome = placer.optimize(profile, threads);
      for (const auto& [name, fraction] : outcome.plan) d.add(fraction);
      d.add(outcome.result);
      d.add(outcome.hbm_bytes);
      d.add(outcome.speedup_vs_all_ddr);
    }
  }
  return d.hex();
}

TEST(ResultDigest, FineGrainedPlacementOnKnl) {
  EXPECT_EQ(placer_digest(MachineConfig::knl7210()), "08c7dc8036aec5f3");
}

TEST(ResultDigest, FineGrainedPlacementOnKnlNvm) {
  EXPECT_EQ(placer_digest(MachineConfig::knl_nvm()), "08c7dc8036aec5f3");
}

}  // namespace
}  // namespace knl
