#include "report/sensitivity.hpp"

#include <stdexcept>

#include "core/machine.hpp"
#include "workloads/gups.hpp"
#include "workloads/minife.hpp"
#include "workloads/xsbench.hpp"

namespace knl::report {

std::vector<NamedPerturbation> standard_perturbations() {
  return {
      {"hbm_latency",
       [](MachineConfig& cfg, double d) { cfg.fast_tier().idle_latency_ns *= 1.0 + d; }},
      {"ddr_latency",
       [](MachineConfig& cfg, double d) { cfg.dram_tier().idle_latency_ns *= 1.0 + d; }},
      {"hbm_stream_bw",
       [](MachineConfig& cfg, double d) { cfg.fast_tier().stream_bw_gbs *= 1.0 + d; }},
      {"ddr_stream_bw",
       [](MachineConfig& cfg, double d) { cfg.dram_tier().stream_bw_gbs *= 1.0 + d; }},
      {"ddr_random_bw",
       [](MachineConfig& cfg, double d) { cfg.dram_tier().random_bw_gbs *= 1.0 + d; }},
      {"seq_mlp",
       [](MachineConfig& cfg, double d) { cfg.timing.seq_mlp_per_core *= 1.0 + d; }},
      {"rand_mlp",
       [](MachineConfig& cfg, double d) { cfg.timing.rand_mlp_per_thread *= 1.0 + d; }},
      {"mcdram_sweep_knee",
       [](MachineConfig& cfg, double d) { cfg.timing.mcdram.sweep_knee *= 1.0 + d; }},
  };
}

std::vector<SensitivityRow> sensitivity_sweep(
    const MachineConfig& base, const std::vector<NamedPerturbation>& perturbations,
    const std::vector<double>& deltas, const Conclusion& conclusion) {
  if (!conclusion) throw std::invalid_argument("sensitivity_sweep: null conclusion");
  std::vector<SensitivityRow> rows;
  rows.reserve(perturbations.size() * deltas.size());
  for (const auto& perturbation : perturbations) {
    for (const double delta : deltas) {
      MachineConfig cfg = base;
      perturbation.apply(cfg, delta);
      SensitivityRow row;
      row.parameter = perturbation.name;
      row.delta = delta;
      row.holds = conclusion(cfg);
      rows.push_back(row);
    }
  }
  return rows;
}

namespace conclusions {

Conclusion minife_hbm_speedup_at_least(double factor) {
  return [factor](const MachineConfig& cfg) {
    const Machine machine(cfg);
    const auto minife =
        workloads::MiniFe::from_footprint(static_cast<std::uint64_t>(7.2e9));
    const auto profile = minife.profile();
    const RunResult dram = machine.run(profile, RunConfig{MemConfig::DRAM, 64});
    const RunResult hbm = machine.run(profile, RunConfig{MemConfig::HBM, 64});
    if (!dram.feasible || !hbm.feasible || hbm.seconds <= 0.0) return false;
    return dram.seconds / hbm.seconds >= factor;
  };
}

Conclusion gups_prefers_dram() {
  return [](const MachineConfig& cfg) {
    const Machine machine(cfg);
    const workloads::Gups gups(8ull << 30);
    const auto profile = gups.profile();
    const RunResult dram = machine.run(profile, RunConfig{MemConfig::DRAM, 64});
    const RunResult hbm = machine.run(profile, RunConfig{MemConfig::HBM, 64});
    return dram.feasible && hbm.feasible && dram.seconds < hbm.seconds;
  };
}

Conclusion xsbench_crossover_at_256() {
  return [](const MachineConfig& cfg) {
    const Machine machine(cfg);
    const auto xs = workloads::XsBench::from_footprint(static_cast<std::uint64_t>(5.6e9));
    const auto profile = xs.profile();
    const RunResult dram64 = machine.run(profile, RunConfig{MemConfig::DRAM, 64});
    const RunResult hbm64 = machine.run(profile, RunConfig{MemConfig::HBM, 64});
    const RunResult dram256 = machine.run(profile, RunConfig{MemConfig::DRAM, 256});
    const RunResult hbm256 = machine.run(profile, RunConfig{MemConfig::HBM, 256});
    if (!dram64.feasible || !hbm64.feasible || !dram256.feasible || !hbm256.feasible) {
      return false;
    }
    // DRAM wins at one thread/core; HBM wins with full SMT.
    return dram64.seconds < hbm64.seconds && hbm256.seconds < dram256.seconds;
  };
}

}  // namespace conclusions

}  // namespace knl::report
