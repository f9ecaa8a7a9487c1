// Extension bench (paper SVI future work): fine-grained per-structure
// placement vs the paper's coarse configurations, for problems larger than
// MCDRAM where coarse HBM binding is impossible.
#include <memory>

#include "bench_util.hpp"
#include "core/placement_plan.hpp"
#include "report/figure.hpp"
#include "workloads/minife.hpp"
#include "workloads/xsbench.hpp"

int main(int argc, char** argv) {
  if (argc != 1) {
    std::fprintf(stderr, "usage: %s (takes no arguments)\n", argv[0]);
    return 2;
  }
  using namespace knl;
  Machine machine;
  const FineGrainedPlacer placer(machine);

  report::Figure figure("Fine-grained vs coarse placement (MiniFE)",
                        "Matrix Size (GB)", "CG MFLOPS");
  for (const double size_gb : {18.0, 24.0, 30.0, 40.0}) {
    const auto minife = workloads::MiniFe::from_footprint(bench::gb(size_gb));
    const auto profile = minife.profile();
    const double x = static_cast<double>(minife.footprint_bytes()) / 1e9;

    const RunResult dram = machine.run(profile, RunConfig{MemConfig::DRAM, 64});
    const RunResult cache = machine.run(profile, RunConfig{MemConfig::CacheMode, 64});
    const PlanOutcome fine = placer.optimize(profile, 64);
    figure.add("DRAM (coarse)", x, minife.metric(dram));
    figure.add("Cache Mode (coarse)", x, minife.metric(cache));
    if (fine.result.feasible) {
      figure.add("Fine-grained plan", x, minife.metric(fine.result));
    }
  }

  bench::print_figure(
      "Extension: per-structure placement beyond MCDRAM capacity",
      "coarse HBM is infeasible at these sizes; the per-structure plan should "
      "recover most of the HBM benefit while cache mode fades (paper SVI)",
      figure);

  // XSBench control: the optimizer must decline MCDRAM for latency-bound data.
  const auto xs = workloads::XsBench::from_footprint(bench::gb(22.5));
  const PlanOutcome xs_plan = placer.optimize(xs.profile(), 64);
  std::printf("XSBench 22.5 GB control: optimizer placed %.1f GB in MCDRAM "
              "(expected 0.0 — latency-bound data belongs in DDR)\n",
              static_cast<double>(xs_plan.hbm_bytes) / 1e9);
  return 0;
}
