// Calibration sensitivity analysis.
//
// The machine model's constants come from the paper's measurements; a fair
// question is whether the reproduced *conclusions* (who wins, where the
// crossovers sit) depend delicately on those constants. This module
// perturbs named calibration parameters by a relative amount, rebuilds the
// machine, and re-evaluates a conclusion predicate — reporting the range
// over which each conclusion survives.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/machine_config.hpp"

namespace knl::report {

/// Mutates one calibration parameter by relative `delta` (e.g. +0.1 = +10%).
using Perturbation = std::function<void(MachineConfig&, double delta)>;

struct NamedPerturbation {
  std::string name;
  Perturbation apply;
};

/// The calibration knobs worth stressing: node latencies, bandwidth caps,
/// MLP, and the MCDRAM-cache sweep knee.
[[nodiscard]] std::vector<NamedPerturbation> standard_perturbations();

/// A conclusion: evaluated on a machine, true if it (still) holds.
using Conclusion = std::function<bool(const MachineConfig&)>;

struct SensitivityRow {
  std::string parameter;
  double delta = 0.0;
  bool holds = false;
};

/// Evaluate `conclusion` under every (perturbation x delta) combination.
[[nodiscard]] std::vector<SensitivityRow> sensitivity_sweep(
    const MachineConfig& base, const std::vector<NamedPerturbation>& perturbations,
    const std::vector<double>& deltas, const Conclusion& conclusion);

/// Canned conclusions for the paper's headline claims.
namespace conclusions {
/// MiniFE (7.2 GB) gains >= `factor` from HBM at 64 threads.
[[nodiscard]] Conclusion minife_hbm_speedup_at_least(double factor);
/// GUPS (8 GiB) runs faster from DRAM than from HBM at 64 threads.
[[nodiscard]] Conclusion gups_prefers_dram();
/// XSBench (5.6 GB): HBM overtakes DRAM at 256 threads.
[[nodiscard]] Conclusion xsbench_crossover_at_256();
}  // namespace conclusions

}  // namespace knl::report
