#include "cluster/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/fault/error.hpp"

namespace knl::cluster {

namespace comm {

CommModel halo3d(int iterations) {
  if (iterations < 1) throw std::invalid_argument("halo3d: iterations must be >= 1");
  return [iterations](std::uint64_t total_bytes, int nodes) {
    CommVolume v;
    if (nodes <= 1) return v;
    // Cubic decomposition: per-node volume V = total/nodes; halo surface
    // ~ 6 * V^(2/3) (in bytes, assuming byte-per-cell proportionality).
    const double per_node = static_cast<double>(total_bytes) / nodes;
    v.bytes_per_node = 6.0 * std::pow(per_node, 2.0 / 3.0) * iterations;
    v.messages = 6 * iterations;
    v.alltoall = false;
    return v;
  };
}

CommModel minife_cg(int iterations) {
  const CommModel halo = halo3d(iterations);
  return [halo, iterations](std::uint64_t total_bytes, int nodes) {
    CommVolume v = halo(total_bytes, nodes);
    if (nodes > 1) {
      v.allreduce_count = 2 * iterations;  // r.r and p.Ap dots per iteration
      v.allreduce_bytes = 8;
    }
    return v;
  };
}

CommModel alltoall(double traffic_fraction, int rounds) {
  if (traffic_fraction < 0.0 || traffic_fraction > 1.0) {
    throw std::invalid_argument("alltoall: traffic_fraction outside [0,1]");
  }
  if (rounds < 1) throw std::invalid_argument("alltoall: rounds must be >= 1");
  return [traffic_fraction, rounds](std::uint64_t total_bytes, int nodes) {
    CommVolume v;
    if (nodes <= 1) return v;
    const double per_node = static_cast<double>(total_bytes) / nodes;
    v.bytes_per_node = per_node * traffic_fraction * rounds;
    v.messages = (nodes - 1) * rounds;
    v.alltoall = true;
    return v;
  };
}

CommModel none() {
  return [](std::uint64_t, int) { return CommVolume{}; };
}

}  // namespace comm

ClusterMachine::ClusterMachine(MachineConfig node_config, InterconnectConfig net)
    : node_(node_config), net_(net), collectives_(Interconnect(net)) {}

ScalingPoint ClusterMachine::run_strong(const NodeWorkloadFactory& factory,
                                        std::uint64_t total_bytes, int nodes,
                                        const RunConfig& run_config,
                                        const CommModel& comm) const {
  if (nodes < 1) throw std::invalid_argument("run_strong: need >= 1 node");
  if (total_bytes == 0) throw std::invalid_argument("run_strong: empty problem");

  ScalingPoint point;
  point.nodes = nodes;
  point.per_node_bytes = total_bytes / static_cast<std::uint64_t>(nodes);
  if (point.per_node_bytes == 0) {
    point.note = "decomposition finer than one byte per node";
    return point;
  }

  const auto workload = factory(point.per_node_bytes);
  const RunResult node_run = node_.run(workload->profile(), run_config);
  if (!node_run.feasible) {
    point.note = node_run.infeasible_reason;
    return point;
  }

  const CommVolume volume = comm(total_bytes, nodes);
  double comm_seconds =
      volume.alltoall ? net_.alltoall_seconds(volume.bytes_per_node, nodes)
                      : net_.exchange_seconds(volume.bytes_per_node, volume.messages);
  if (volume.allreduce_count > 0 && nodes > 1) {
    comm_seconds += volume.allreduce_count *
                    collectives_.allreduce(nodes, volume.allreduce_bytes).seconds;
  }

  point.feasible = true;
  point.node_seconds = node_run.seconds;
  point.comm_seconds = comm_seconds;
  point.total_seconds = node_run.seconds + comm_seconds;
  return point;
}

std::vector<ScalingPoint> ClusterMachine::strong_scaling(
    const NodeWorkloadFactory& factory, std::uint64_t total_bytes,
    const std::vector<int>& node_counts, const RunConfig& run_config,
    const CommModel& comm) const {
  std::vector<ScalingPoint> points;
  points.reserve(node_counts.size());
  for (const int nodes : node_counts) {
    points.push_back(run_strong(factory, total_bytes, nodes, run_config, comm));
  }
  return points;
}

CapacityPlan CapacityPlanner::plan(const NodeWorkloadFactory& factory,
                                   std::uint64_t total_bytes,
                                   const std::vector<int>& node_counts, int threads,
                                   const CommModel& comm) const {
  CapacityPlan best;
  bool have_best = false;
  const std::uint64_t hbm_capacity = cluster_.node().config().fast_tier().capacity_bytes;

  for (const int nodes : node_counts) {
    for (const MemConfig config :
         {MemConfig::DRAM, MemConfig::HBM, MemConfig::CacheMode}) {
      const ScalingPoint point = cluster_.run_strong(
          factory, total_bytes, nodes, RunConfig{config, threads}, comm);
      if (!point.feasible) continue;
      if (!have_best || point.total_seconds < best.point.total_seconds) {
        best.nodes = nodes;
        best.config = config;
        best.point = point;
        best.fits_hbm_per_node = point.per_node_bytes <= hbm_capacity;
        have_best = true;
      }
    }
  }
  if (!have_best) {
    throw Error::resource("cluster/no-feasible-config",
                          "CapacityPlanner: no feasible configuration found");
  }
  return best;
}

}  // namespace knl::cluster
