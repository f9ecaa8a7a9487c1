// Interval timing model built on Little's law (paper §IV-B cites it as the
// governing relation):
//
//   attainable_bw = min( node cap,  outstanding_bytes / effective_latency )
//
// Regular phases get high per-core MLP from the prefetcher, so demand
// exceeds DDR's cap and DDR is bandwidth-bound while MCDRAM has ~4x
// headroom — that is the paper's 2-3x speedup for DGEMM/MiniFE.  Random
// phases sustain only a couple of outstanding misses per thread, so
// throughput = concurrency / latency and MCDRAM's ~18% higher latency makes
// DDR win — until enough hardware threads raise concurrency to DDR's cap,
// at which point MCDRAM overtakes (the paper's XSBench crossover at 256
// threads).
#pragma once

#include <vector>

#include "core/types.hpp"
#include "sim/cache_hierarchy.hpp"
#include "sim/knl_params.hpp"
#include "sim/mcdram_cache.hpp"
#include "sim/tlb.hpp"
#include "sim/topology.hpp"
#include "trace/access_phase.hpp"

namespace knl::sim {

struct TimingConfig {
  HierarchyConfig hierarchy = {};
  TlbConfig tlb = {};
  McdramCacheConfig mcdram = {};
  int cores = params::kCores;
  int smt_per_core = params::kSmtPerCore;
  double seq_mlp_per_core = params::kSeqMlpPerCore;
  double rand_mlp_per_thread = params::kRandMlpPerThread;
  /// Latency inflation as utilization approaches the node cap (M/D/1-ish).
  double queue_coefficient = 0.30;
};

/// Timing of one phase under one run configuration.
struct PhaseTiming {
  double seconds = 0.0;
  double memory_bytes = 0.0;       ///< Traffic that reached DRAM/MCDRAM.
  double effective_latency_ns = 0.0;
  double achieved_bw_gbs = 0.0;    ///< memory_bytes / seconds (decimal GB/s).
  double concurrency_lines = 0.0;  ///< Outstanding line requests sustained.
  double mcdram_hit_rate = 1.0;    ///< Cache-mode hit rate (1 otherwise).
  bool bandwidth_bound = false;    ///< Node cap (not latency) limited it.
  bool compute_bound = false;
};

class TimingModel {
 public:
  explicit TimingModel(TimingConfig config = {});

  [[nodiscard]] const TimingConfig& config() const noexcept { return config_; }
  [[nodiscard]] const CacheHierarchy& hierarchy() const noexcept { return hierarchy_; }
  [[nodiscard]] const TlbModel& tlb() const noexcept { return tlb_; }
  [[nodiscard]] const McdramCacheModel& mcdram() const noexcept { return mcdram_; }

  /// Time one phase on a declared topology. `fractions[i]` is the share of
  /// the phase's pages resident in tier i (must sum to ~1): {0, 1} on KNL is
  /// numactl --membind=0, {1, 0} is --membind=1. Flat configurations drain
  /// every tier's share concurrently (seconds = max over tiers). Cache mode
  /// routes the DRAM tier's share through the cache-front tier's blend
  /// while the remaining tiers (e.g. an NVM spill) are timed directly.
  [[nodiscard]] PhaseTiming time_phase(const trace::AccessPhase& phase,
                                       const RunConfig& run,
                                       const MemoryTopology& topology,
                                       const std::vector<double>& fractions) const;

  /// Hardware threads per core implied by a total thread count.
  [[nodiscard]] int ht_per_core(int threads) const;

  /// Outstanding line requests the phase sustains machine-wide.
  [[nodiscard]] double concurrency_lines(const trace::AccessPhase& phase,
                                         int threads) const;

  /// Effective per-access memory latency for a phase hitting `node`,
  /// including directory, paging and load-dependent queueing at
  /// `utilization` (0..1 of the node cap). Page walks are priced relative
  /// to the machine's DRAM tier `dram` (MemoryTopology::dram_tier).
  [[nodiscard]] double effective_latency_ns(const trace::AccessPhase& phase,
                                            const params::NodeParams& node,
                                            const params::NodeParams& dram,
                                            double utilization) const;

  /// Bytes of the phase's logical traffic that reach the memory system
  /// (after L1/L2 filtering, line-granule amplification and write traffic).
  [[nodiscard]] double memory_traffic_bytes(const trace::AccessPhase& phase,
                                            int threads) const;

  /// Node bandwidth cap applicable to the phase's pattern.
  [[nodiscard]] double node_cap_gbs(const trace::AccessPhase& phase,
                                    const params::NodeParams& node) const;

 private:
  struct NodePath {
    double bytes = 0.0;
    double latency_ns = 0.0;
    double cap_gbs = 0.0;
    double bw_gbs = 0.0;
    double seconds = 0.0;
    bool capped = false;
  };

  /// Regularity in [0,1]: 1 = fully prefetchable stream, 0 = random.
  [[nodiscard]] static double regularity(const trace::AccessPhase& phase);

  /// `conc_share` scales the machine-wide concurrency devoted to this node
  /// (split placements divide the cores' outstanding requests with traffic).
  [[nodiscard]] NodePath time_on_node(const trace::AccessPhase& phase,
                                      const params::NodeParams& node,
                                      const params::NodeParams& dram, int threads,
                                      double bytes, double conc_share) const;

  TimingConfig config_;
  CacheHierarchy hierarchy_;
  TlbModel tlb_;
  McdramCacheModel mcdram_;
};

}  // namespace knl::sim
