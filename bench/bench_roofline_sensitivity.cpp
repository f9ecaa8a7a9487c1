// Analysis bench: the node's rooflines with the paper's workloads placed
// on them, plus the calibration-sensitivity table showing each headline
// conclusion's robustness to +-10% parameter perturbations.
#include <cstdio>

#include "bench_util.hpp"
#include "report/roofline.hpp"
#include "report/sensitivity.hpp"
#include "report/table.hpp"
#include "workloads/dgemm.hpp"
#include "workloads/gups.hpp"
#include "workloads/minife.hpp"
#include "workloads/xsbench.hpp"

int main(int argc, char** argv) {
  if (argc != 1) {
    std::fprintf(stderr, "usage: %s (takes no arguments)\n", argv[0]);
    return 2;
  }
  using namespace knl;
  Machine machine;

  std::printf("==== Machine model card ====\n%s\n", machine.describe().c_str());

  // --- Rooflines -----------------------------------------------------------
  const report::Roofline ddr(machine, MemConfig::DRAM, 64);
  const report::Roofline hbm(machine, MemConfig::HBM, 64);
  std::printf("==== Rooflines @ 64 threads ====\n");
  std::printf("  DRAM: slope %.0f GB/s, roof %.0f GFLOPS, ridge %.2f flops/B\n",
              ddr.stream_bw_gbs(), ddr.peak_gflops(), ddr.ridge_intensity());
  std::printf("  HBM:  slope %.0f GB/s, roof %.0f GFLOPS, ridge %.2f flops/B\n\n",
              hbm.stream_bw_gbs(), hbm.peak_gflops(), hbm.ridge_intensity());

  const auto dgemm = workloads::Dgemm::from_footprint(bench::gb(6));
  const auto minife = workloads::MiniFe::from_footprint(bench::gb(7.2));
  const workloads::Gups gups(8ull << 30);
  const auto xs = workloads::XsBench::from_footprint(bench::gb(5.6));

  report::TextTable table({"Workload", "flops/B", "DRAM verdict", "HBM verdict"});
  for (const workloads::Workload* w :
       std::initializer_list<const workloads::Workload*>{&dgemm, &minife, &gups, &xs}) {
    const auto on_ddr = ddr.classify(*w);
    const auto on_hbm = hbm.classify(*w);
    char intensity[32];
    std::snprintf(intensity, sizeof intensity, "%.3f", on_ddr.intensity);
    table.add_row({w->info().name, intensity,
                   on_ddr.compute_bound ? "compute-bound" : "memory-bound",
                   on_hbm.compute_bound ? "compute-bound" : "memory-bound"});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("expected: DGEMM flips memory->compute bound when moved to MCDRAM "
              "(the Fig. 4a mechanism); the others stay memory-bound.\n\n");
  std::printf("note on sensitivity below: the XSBench crossover living or dying on "
              "~10%% parameter swings is itself a finding — the paper's measured "
              "crossover is equally a near-tie between HBM's concurrency headroom "
              "and DRAM's latency edge.\n\n");

  // --- Sensitivity ---------------------------------------------------------
  std::printf("==== Calibration sensitivity (+-10%% on every knob) ====\n");
  struct Claim {
    const char* name;
    report::Conclusion conclusion;
  };
  const Claim claims[] = {
      {"MiniFE: HBM >= 2.5x DRAM @64thr",
       report::conclusions::minife_hbm_speedup_at_least(2.5)},
      {"GUPS: DRAM beats HBM @64thr", report::conclusions::gups_prefers_dram()},
      {"XSBench: HBM overtakes DRAM @256thr",
       report::conclusions::xsbench_crossover_at_256()},
  };
  for (const Claim& claim : claims) {
    const auto rows = report::sensitivity_sweep(MachineConfig::knl7210(),
                                                report::standard_perturbations(),
                                                {-0.10, 0.10}, claim.conclusion);
    int broken = 0;
    for (const auto& row : rows) {
      if (!row.holds) ++broken;
    }
    std::printf("  %-40s %s (%d/%zu perturbations break it)\n", claim.name,
                broken == 0 ? "ROBUST" : "FRAGILE", broken, rows.size());
    for (const auto& row : rows) {
      if (!row.holds) {
        std::printf("      breaks at %s %+0.0f%%\n", row.parameter.c_str(),
                    row.delta * 100.0);
      }
    }
  }
  return 0;
}
