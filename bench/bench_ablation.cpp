// Ablation benches for the design choices DESIGN.md calls out, plus the
// paper's §II hybrid mode (which its evaluation skips as "cumbersome"):
//
//  1. latency ablation: a hypothetical MCDRAM with DDR-equal latency —
//     quantifies how much of the random-access penalty is pure latency
//     (the paper's contribution #4 made falsifiable).
//  2. hybrid-mode partition sweep: MiniFE at 1.5x MCDRAM capacity with the
//     hottest data flat-bound and the rest cached, across partition ratios.
//  3. interleave/preferred placements for a footprint larger than MCDRAM
//     (the paper's §IV-C "only way to run some large problems").
#include <cstdio>

#include "bench_util.hpp"
#include "core/machine.hpp"
#include "report/figure.hpp"
#include "workloads/gups.hpp"
#include "workloads/minife.hpp"
#include "workloads/xsbench.hpp"

int main(int argc, char** argv) {
  if (argc != 1) {
    std::fprintf(stderr, "usage: %s (takes no arguments)\n", argv[0]);
    return 2;
  }
  using namespace knl;

  // --- 1. Equal-latency MCDRAM ablation -----------------------------------
  {
    Machine real;
    Machine equal(MachineConfig::knl7210_equal_latency());
    report::Figure figure("Ablation: HBM latency penalty on random access",
                          "Table Size (GiB)", "GUPS");
    for (std::uint64_t g = 1; g <= 8; g *= 2) {
      const workloads::Gups gups(g << 30);
      const auto profile = gups.profile();
      const double x = static_cast<double>(g);
      figure.add("DRAM", x, gups.metric(real.run(profile, {MemConfig::DRAM, 64})));
      figure.add("HBM (154 ns)", x, gups.metric(real.run(profile, {MemConfig::HBM, 64})));
      figure.add("HBM (130.4 ns counterfactual)", x,
                 gups.metric(equal.run(profile, {MemConfig::HBM, 64})));
    }
    bench::print_figure(
        "Ablation 1: is the random-access penalty really latency?",
        "with DDR-equal latency the HBM disadvantage on GUPS should vanish "
        "(paper contribution #4)",
        figure);
  }

  // --- 2. Hybrid-mode partition sweep --------------------------------------
  {
    Machine machine;
    const auto minife = workloads::MiniFe::from_footprint(bench::gb(24.0));
    const auto profile = minife.profile();
    report::Figure figure("Hybrid mode: MiniFE at 24 GB vs MCDRAM partition",
                          "Cache fraction of MCDRAM", "CG MFLOPS");
    const RunResult pure_dram = machine.run(profile, {MemConfig::DRAM, 64});
    const RunResult pure_cache = machine.run(profile, {MemConfig::CacheMode, 64});
    for (const double frac : {0.0, 0.25, 0.5, 0.75, 1.0}) {
      const auto flat_bytes = static_cast<std::uint64_t>(
          (1.0 - frac) * static_cast<double>(machine.config().fast_tier().capacity_bytes));
      const RunResult r = machine.run_hybrid(profile, 64, frac, flat_bytes);
      if (r.feasible) figure.add("hybrid", frac, minife.metric(r));
    }
    figure.add("all-DRAM baseline", 0.5, minife.metric(pure_dram));
    figure.add("pure cache mode", 0.5, minife.metric(pure_cache));
    bench::print_figure(
        "Ablation 2: hybrid-mode partitioning (paper SII, unevaluated there)",
        "hybrid should beat all-DRAM once the flat partition captures hot data; "
        "extremes approximate flat-only / cache-only",
        figure);
  }

  // --- 3. Oversized footprints: interleave / preferred ---------------------
  {
    Machine machine;
    const auto xs = workloads::XsBench::from_footprint(bench::gb(22.5));
    const auto profile = xs.profile();
    report::Figure figure("Placements for a 22.5 GB XSBench (exceeds MCDRAM)",
                          "placement id", "Lookups/s");
    const RunResult dram = machine.run(profile, {MemConfig::DRAM, 64});
    figure.add("membind=0 (DRAM)", 0, xs.metric(dram));
    const RunResult inter = machine.run_flat_placement(profile, 64, Placement::Interleave);
    if (inter.feasible) figure.add("interleave=0,1", 1, xs.metric(inter));
    const RunResult pref = machine.run_flat_placement(profile, 64, Placement::Preferred);
    if (pref.feasible) figure.add("preferred=1", 2, xs.metric(pref));
    const RunResult cache = machine.run(profile, {MemConfig::CacheMode, 64});
    figure.add("cache mode", 3, xs.metric(cache));
    bench::print_figure(
        "Ablation 3: coarse placements beyond MCDRAM capacity (paper SIV-C)",
        "interleave spreads traffic across both controllers; preferred spills "
        "past a full MCDRAM; membind=1 is infeasible at this size",
        figure);
  }
  return 0;
}
