#include "workloads/latency_probe.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/fault/error.hpp"
#include "trace/generators.hpp"

namespace knl::workloads {

LatencyProbe::LatencyProbe(std::uint64_t block_bytes, int chains)
    : block_bytes_(block_bytes), chains_(chains),
      accesses_(std::max<std::uint64_t>(1, block_bytes / 64) * 4) {
  if (block_bytes_ < 4096) throw std::invalid_argument("LatencyProbe: block too small");
  if (chains_ < 1) throw std::invalid_argument("LatencyProbe: need >= 1 chain");
}

const WorkloadInfo& LatencyProbe::info() const {
  static const WorkloadInfo kInfo{
      .name = "TinyMemBench (dual random read)",
      .type = "Micro-benchmark",
      .access_pattern = "Random",
      .max_scale_bytes = 1ull << 30,
      .metric_name = "ns/access",
  };
  return kInfo;
}

trace::AccessProfile LatencyProbe::profile() const {
  trace::AccessProfile p("latency-probe");
  p.set_resident_bytes(block_bytes_);

  trace::AccessPhase chase;
  chase.name = "dual-random-read";
  chase.pattern = trace::Pattern::PointerChase;
  chase.footprint_bytes = block_bytes_;
  chase.logical_bytes = static_cast<double>(accesses_) * 8.0;
  chase.granule_bytes = 8;
  chase.chains_per_thread = chains_;
  p.add(chase);
  return p;
}

double LatencyProbe::metric(const RunResult& result) const {
  if (!result.feasible || result.seconds <= 0.0) return 0.0;
  return result.seconds * 1e9 / static_cast<double>(accesses_);
}

double LatencyProbe::measured_latency_ns(const Machine& machine, MemNode node) const {
  const auto& timing = machine.timing();
  const params::NodeParams& dram = machine.config().dram_tier();
  const params::NodeParams& node_params =
      node == MemNode::DDR ? dram : machine.config().fast_tier();

  trace::AccessPhase chase;
  chase.name = "probe";
  chase.pattern = trace::Pattern::PointerChase;
  chase.footprint_bytes = block_bytes_;
  chase.logical_bytes = static_cast<double>(accesses_) * 8.0;
  chase.granule_bytes = 8;
  chase.chains_per_thread = chains_;

  // Single-threaded probe: only the prober's own tile L2 is warm; L1 is
  // excluded by the benchmark itself (block sizes well above 32 KB).
  const double p_l2 = timing.hierarchy().random_local_l2_hit(block_bytes_);
  const double l2_ns = timing.hierarchy().config().l2_latency_ns;
  const double mem_ns = timing.effective_latency_ns(chase, node_params, dram, 0.0);
  return p_l2 * l2_ns + (1.0 - p_l2) * mem_ns;
}

double LatencyProbe::idle_latency_ns(const Machine& machine, MemNode node) {
  const MachineConfig& cfg = machine.config();
  return node == MemNode::DDR ? cfg.dram_tier().idle_latency_ns
                              : cfg.fast_tier().idle_latency_ns;
}

void LatencyProbe::verify() const {
  // Build a real chase permutation and confirm the walk is a single cycle
  // covering every slot — the property that makes the probe measure latency
  // rather than cache hits.
  const std::uint32_t n = 1u << 12;
  const auto next = trace::build_chase_permutation(n, /*seed=*/42);
  std::vector<bool> seen(n, false);
  std::uint32_t cur = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (seen[cur]) {
      throw Error::internal("latency-probe/verify",
                            "LatencyProbe::verify: chase short-cycled");
    }
    seen[cur] = true;
    cur = next[cur];
  }
  if (cur != 0) {
    throw Error::internal("latency-probe/verify",
                          "LatencyProbe::verify: chase not a cycle");
  }
}

}  // namespace knl::workloads
