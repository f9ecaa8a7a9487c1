// MCDRAM in cache mode: a direct-mapped, memory-side cache in front of DDR
// (paper §II "Cache" and the Fig. 2 bandwidth cliff).
//
// Two cooperating models:
//  - McdramCacheModel: closed-form steady-state hit rates and the blended
//    bandwidth/latency of the cached path. Used at paper scale.
//  - McdramCacheSim:   exact (set-sampled) direct-mapped simulation driven
//    by replayed address streams. Used by tests to validate the closed form
//    and by the trace substrate for small-footprint studies.
//
// Mechanism being reproduced: the cache is direct-mapped on *physical*
// address, so (a) repeated sweeps larger than capacity get no reuse, and
// (b) even below capacity, physical-page scatter creates conflicts whose
// frequency grows steeply as occupancy approaches 1 — this is what drags
// cache-mode STREAM from ~330 GB/s down through 260 GB/s (8 GB), 125 GB/s
// (11.4 GB) and below DRAM past ~24 GB in the paper.
#pragma once

#include <cstdint>

#include "sim/cache.hpp"
#include "sim/knl_params.hpp"

namespace knl::sim {

struct McdramCacheConfig {
  std::uint64_t capacity_bytes = params::kHbm.capacity_bytes;
  std::uint64_t line_bytes = params::kLineBytes;
  double tag_latency_ns = params::kMcdramTagLatencyNs;
  double miss_overhead_s_per_gb = params::kMcdramMissOverheadSPerGB;
  double sweep_knee = params::kSweepKnee;
  double sweep_sharpness = params::kSweepSharpness;
};

class McdramCacheModel {
 public:
  explicit McdramCacheModel(McdramCacheConfig config = {});

  [[nodiscard]] const McdramCacheConfig& config() const noexcept { return config_; }

  /// Steady-state hit rate of repeated sequential sweeps over `footprint`
  /// bytes: h(rho) = 1 / (1 + (rho/knee)^sharpness), rho = footprint/capacity.
  /// Calibrated to the paper's cache-mode STREAM anchors.
  [[nodiscard]] double sweep_hit_rate(std::uint64_t footprint_bytes) const;

  /// Steady-state hit rate of uniform-random line accesses over `footprint`
  /// bytes: residency capacity/footprint shaved by direct-mapped conflicts.
  [[nodiscard]] double random_hit_rate(std::uint64_t footprint_bytes) const;

  /// Effective streaming bandwidth of the cached path given the hit rate and
  /// the raw attainable bandwidths of the two devices:
  ///   1 / (h/bw_hbm + (1-h) * (1/bw_ddr + miss_overhead)).
  [[nodiscard]] double effective_bandwidth_gbs(double hit_rate, double hbm_bw_gbs,
                                               double ddr_bw_gbs) const;

  /// Effective access latency of the cached path: every access pays the
  /// MCDRAM tag check; misses then add the DDR trip.
  [[nodiscard]] double effective_latency_ns(double hit_rate, double hbm_latency_ns,
                                            double ddr_latency_ns) const;

 private:
  McdramCacheConfig config_;
};

/// Exact direct-mapped simulation (sampled sets), for cross-validation.
class McdramCacheSim {
 public:
  /// `sample_every` > 1 simulates 1/sample_every of the sets — unbiased for
  /// sweep and uniform-random streams.
  explicit McdramCacheSim(McdramCacheConfig config = {}, std::uint64_t sample_every = 64);

  /// Access a physical byte address; true on hit.
  bool access(std::uint64_t paddr) { return sim_.access(paddr); }
  std::uint64_t access_range(std::uint64_t paddr, std::uint64_t bytes) {
    return sim_.access_range(paddr, bytes);
  }

  [[nodiscard]] double hit_rate() const { return sim_.stats().hit_rate(); }
  [[nodiscard]] const CacheStats& stats() const { return sim_.stats(); }
  void reset_stats() { sim_.reset_stats(); }
  void flush() { sim_.flush(); }

 private:
  CacheSim sim_;
};

}  // namespace knl::sim
