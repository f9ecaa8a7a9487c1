// Multi-core trace replay: N cores, each with a private L1 + MSHRs and a
// share of the tiled L2, draining access streams concurrently against a
// shared memory-bandwidth budget.
//
// This extends TraceMachine's single-core validation to the machine-level
// claims: that aggregate random-access throughput scales with
// cores x MSHRs until the node's bandwidth cap binds, and that the cap —
// not latency — separates DDR from MCDRAM for streaming traffic. It is
// the discrete counterpart of TimingModel's concurrency model.
//
// Simplification: cores are synchronized in rounds of one access each
// (lock-step interleave). That matches how the analytic model treats
// homogeneous SPMD phases and keeps the replay deterministic. The
// "parallel" is the simulated cores: replay() is one serial loop on the
// calling thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/cache.hpp"
#include "sim/knl_params.hpp"
#include "sim/mesh.hpp"
#include "sim/replay_stats.hpp"
#include "sim/tlb.hpp"

namespace knl::sim {

struct ParallelReplayConfig {
  int cores = 8;  ///< replayed cores (test-scale; 64 = full node)
  double issue_ns = 0.77;
  int mshrs_per_core = 12;
  CacheConfig l1{.capacity_bytes = params::kL1Bytes, .line_bytes = params::kLineBytes,
                 .ways = params::kL1Ways, .sample_every = 1};
  /// Shared L2 slice per core pair (tile); modelled per-core as half a tile.
  CacheConfig l2{.capacity_bytes = params::kL2Bytes / 2,
                 .line_bytes = params::kLineBytes, .ways = params::kL2Ways,
                 .sample_every = 1};
  double l1_latency_ns = params::kL1LatencyNs;
  double l2_latency_ns = params::kL2LatencyNs;
  MeshConfig mesh = {};
  TlbConfig tlb = {};
  params::NodeParams node = params::kDdr;
  /// Scale the node's bandwidth cap to the replayed core count, so an
  /// 8-core replay models 1/8 of the node (caps are machine-wide).
  bool scale_cap_to_cores = true;
};

class ParallelReplay {
 public:
  ParallelReplay();  // default configuration
  explicit ParallelReplay(ParallelReplayConfig config);

  /// Replay one independent access stream per core (streams may differ in
  /// length; shorter cores idle), each from its first entry. Returns this
  /// call's aggregate counters; `seconds` is when its last access completes
  /// on the simulated clock. Caches, TLBs, MSHRs, issue cursors (that clock)
  /// and the bandwidth budget stay warm into the next call until reset().
  ParallelReplayStats replay(const std::vector<std::vector<std::uint64_t>>& streams);

  /// Effective bandwidth cap applied to this replay (GB/s).
  [[nodiscard]] double bandwidth_cap_gbs() const;

  void reset();

  [[nodiscard]] const ParallelReplayConfig& config() const noexcept { return config_; }

 private:
  struct Core {
    CacheSim l1;
    CacheSim l2;
    TlbSim tlb;
    std::vector<double> mshr_free_at;
    double issue_cursor = 0.0;
  };

  ParallelReplayConfig config_;
  Mesh mesh_;
  std::vector<Core> cores_;
  /// Token-bucket bandwidth budget: earliest time the memory system can
  /// start the next line transfer.
  double memory_free_at_ = 0.0;
  double line_service_ns_ = 0.0;
};

}  // namespace knl::sim
