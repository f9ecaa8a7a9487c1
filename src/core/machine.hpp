// Machine: the top-level simulated KNL-class node.
//
// Combines the configured memory topology with the timing model. Every run is
// one placement decision (waterfall or interleave over the declared tiers,
// yielding the byte share each tier holds) followed by one timing rule
// (TimingModel::time_phase over those shares). `run` executes one workload
// profile under one of the paper's three configurations — including the
// capacity feasibility rule the paper applies ("no measurements for HBM in
// flat mode when the problem size exceeds its capacity") — and returns the
// whole-run summary only; `run_detailed` adds the per-phase reports.
// `run_threads` resolves one configuration's placement once and times the
// profile at several thread counts (the advisor's candidate grid).
#pragma once

#include "core/machine_config.hpp"
#include "core/types.hpp"
#include "mem/numa_topology.hpp"
#include "sim/timing_model.hpp"
#include "trace/profile.hpp"

namespace knl {

/// Per-phase breakdown attached to a RunResult when requested.
struct PhaseReport {
  std::string name;
  sim::PhaseTiming timing;
};

/// Result of run_detailed: the whole-run summary plus one PhaseReport per
/// profile phase, in profile order.
struct DetailedRunResult {
  RunResult summary;
  std::vector<PhaseReport> phases;
};

class Machine {
 public:
  explicit Machine(MachineConfig config = MachineConfig::knl7210());

  [[nodiscard]] const MachineConfig& config() const noexcept { return config_; }
  [[nodiscard]] const sim::TimingModel& timing() const noexcept { return timing_; }

  /// config().fingerprint(), computed once: the config never changes after
  /// construction, and every cached cell is keyed by this hash.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept { return fingerprint_; }

  /// The memory topology this machine runs on (the config's).
  [[nodiscard]] const sim::MemoryTopology& memory_topology() const noexcept {
    return config_.topology;
  }

  /// NUMA topology the OS would expose under the given configuration.
  [[nodiscard]] mem::NumaTopology topology(MemConfig config) const;

  /// Human-readable model card: every calibrated parameter and the paper
  /// anchor it encodes (for experiment logs and reproducibility records).
  [[nodiscard]] std::string describe() const;

  /// Run `profile` under the paper's named configuration. Placement is
  /// coarse-grained (all data bound the same way), matching the paper §III-C.
  [[nodiscard]] RunResult run(const trace::AccessProfile& profile,
                              const RunConfig& run_config) const;

  /// `run` at each of `threads` under `config`, with the placement resolved
  /// once: element i is bit-identical to run(profile, {config, threads[i]}).
  [[nodiscard]] std::vector<RunResult> run_threads(const trace::AccessProfile& profile,
                                                   MemConfig config,
                                                   const std::vector<int>& threads) const;

  /// Same as `run`, with the per-phase breakdown.
  [[nodiscard]] DetailedRunResult run_detailed(const trace::AccessProfile& profile,
                                               const RunConfig& run_config) const;

  /// Flat-mode run under an arbitrary numactl-style placement (interleave /
  /// preferred) — the paper's §IV-C suggestion for problems larger than HBM.
  [[nodiscard]] RunResult run_flat_placement(const trace::AccessProfile& profile,
                                             int threads, Placement placement) const;

  /// Hybrid-mode run (paper §II): `cache_fraction` of MCDRAM serves as cache
  /// for DDR while the rest is a small flat HBM node holding the hottest
  /// `flat_hbm_bytes` of the footprint.
  [[nodiscard]] RunResult run_hybrid(const trace::AccessProfile& profile, int threads,
                                     double cache_fraction,
                                     std::uint64_t flat_hbm_bytes) const;

 private:
  /// Per-tier resident fractions of a placement, or the reason the
  /// configuration cannot hold the resident set.
  struct Resolved {
    bool ok = false;
    std::string error;
    std::vector<double> fractions;
  };
  [[nodiscard]] Resolved resolve(std::uint64_t resident_bytes, Placement placement) const;

  /// Waterfall from `preferred` down the backing chain (strict = numactl
  /// membind, no spill) and round-robin interleave across every tier.
  [[nodiscard]] Resolved resolve_waterfall(std::uint64_t resident_bytes, int preferred,
                                           bool strict) const;
  [[nodiscard]] Resolved resolve_interleave(std::uint64_t resident_bytes) const;

  /// Time `profile` over a resolved placement (an infeasible one yields its
  /// reason); per-phase reports only when `want_phases`.
  [[nodiscard]] DetailedRunResult run_impl(const trace::AccessProfile& profile,
                                           const RunConfig& run_config,
                                           const Resolved& resolved, bool want_phases) const;

  MachineConfig config_;
  sim::TimingModel timing_;
  int fast_ = 0;  ///< MemoryTopology::fast_tier() of the config's topology
  int dram_ = 0;  ///< MemoryTopology::dram_tier() of the config's topology
  std::uint64_t fingerprint_ = 0;  ///< MachineConfig::fingerprint() of config_
};

}  // namespace knl
