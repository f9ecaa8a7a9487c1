// Fine-grained, per-data-structure placement — the paper's §VI future work
// ("apply our conclusions to individual data structures") implemented
// against the model.
//
// A workload profile's phases correspond to its major data structures
// (MiniFE: CSR matrix vs CG vectors; XSBench: unionized grid vs nuclide
// data). In flat mode, memkind lets each structure live in a different
// memory. A PlacementPlan assigns each phase a node; the optimizer searches
// for the assignment that minimizes modelled run time under the MCDRAM
// capacity constraint — favouring bandwidth-bound structures for MCDRAM and
// leaving latency-bound ones in DDR, exactly the paper's per-application
// conclusion applied per-structure.
#pragma once

#include <map>
#include <string>

#include "core/machine.hpp"
#include "trace/profile.hpp"

namespace knl {

/// Phase (data structure) name -> placement. Phases absent from the map
/// default to the DRAM tier. Values may be fractional: share of the
/// structure's pages in the fast tier (1.0 = fully HBM-resident); the rest
/// lives in the DRAM tier.
using PlacementPlan = std::map<std::string, double>;

struct PlanOutcome {
  PlacementPlan plan;
  RunResult result;
  std::uint64_t hbm_bytes = 0;     ///< MCDRAM consumed by the plan.
  double speedup_vs_all_ddr = 1.0;
};

class FineGrainedPlacer {
 public:
  explicit FineGrainedPlacer(const Machine& machine) : machine_(machine) {}

  /// Run `profile` in flat mode with an explicit per-phase plan.
  /// Fails (infeasible result) if the plan overcommits either node.
  /// Note: phases are assumed to describe disjoint structures (true for the
  /// bundled workloads); shared structures should be expressed as one phase.
  [[nodiscard]] RunResult run_plan(const trace::AccessProfile& profile, int threads,
                                   const PlacementPlan& plan) const;

  /// Greedy knapsack over phases: rank structures by modelled time saved
  /// per MCDRAM byte, fill the MCDRAM budget, allow one partial (fractional)
  /// placement at the boundary. Structures that the model says run *slower*
  /// from MCDRAM (latency-bound) are never placed there.
  [[nodiscard]] PlanOutcome optimize(const trace::AccessProfile& profile,
                                     int threads) const;

 private:
  const Machine& machine_;
};

}  // namespace knl
