// Extension bench (paper SIV-C): multi-node strong scaling on an
// Aries-connected cluster of simulated KNL nodes — makes the "decompose to
// ~MCDRAM capacity per node" guidance visible as a crossover in the HBM
// column.
#include <memory>

#include "bench_util.hpp"
#include "cluster/cluster.hpp"
#include "report/figure.hpp"
#include "workloads/minife.hpp"

int main(int argc, char** argv) {
  if (argc != 1) {
    std::fprintf(stderr, "usage: %s (takes no arguments)\n", argv[0]);
    return 2;
  }
  using namespace knl;
  cluster::ClusterMachine machine;

  const cluster::NodeWorkloadFactory factory = [](std::uint64_t bytes) {
    return std::make_unique<workloads::MiniFe>(workloads::MiniFe::from_footprint(bytes));
  };
  const auto comm = cluster::comm::minife_cg(/*iterations=*/200);
  const std::uint64_t total = bench::gb(96.0);

  report::Figure figure("MiniFE 96 GB strong scaling, 12-node Aries cluster",
                        "Nodes", "time (s)");
  for (int nodes = 1; nodes <= 12; ++nodes) {
    for (const MemConfig config :
         {MemConfig::DRAM, MemConfig::HBM, MemConfig::CacheMode}) {
      const auto point =
          machine.run_strong(factory, total, nodes, RunConfig{config, 64}, comm);
      if (point.feasible) {
        figure.add(to_string(config), nodes, point.total_seconds);
      }
    }
  }

  bench::print_figure(
      "Extension: strong scaling across the paper's 12-node testbed",
      "HBM column appears once per-node size fits 16 GB (>= 7 nodes) and then "
      "dominates; DRAM/cache scale smoothly; communication stays minor "
      "(surface-to-volume halo)",
      figure);

  const cluster::CapacityPlanner planner(machine);
  std::vector<int> counts;
  for (int n = 1; n <= 12; ++n) counts.push_back(n);
  const auto plan = planner.plan(factory, total, counts, 64, comm);
  std::printf("planner: %d nodes x %s, %.2f GB/node (%s MCDRAM), %.3f s\n",
              plan.nodes, to_string(plan.config).c_str(),
              static_cast<double>(plan.point.per_node_bytes) / 1e9,
              plan.fits_hbm_per_node ? "fits" : "exceeds", plan.point.total_seconds);
  return 0;
}
