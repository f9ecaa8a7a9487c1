#include "sim/timing_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace knl::sim {

namespace {

constexpr double kNsPerSecond = 1e9;

/// Smoothstep between 0 and 1 over [lo, hi].
double smooth01(double x, double lo, double hi) {
  if (x <= lo) return 0.0;
  if (x >= hi) return 1.0;
  const double t = (x - lo) / (hi - lo);
  return t * t * (3.0 - 2.0 * t);
}

}  // namespace

TimingModel::TimingModel(TimingConfig config)
    : config_(config),
      hierarchy_(config.hierarchy),
      tlb_(config.tlb),
      mcdram_(config.mcdram) {
  if (config_.cores <= 0 || config_.smt_per_core <= 0) {
    throw std::invalid_argument("TimingModel: cores and smt_per_core must be positive");
  }
  if (config_.seq_mlp_per_core <= 0.0 || config_.rand_mlp_per_thread <= 0.0) {
    throw std::invalid_argument("TimingModel: MLP parameters must be positive");
  }
}

int TimingModel::ht_per_core(int threads) const {
  if (threads <= 0) throw std::invalid_argument("ht_per_core: threads must be positive");
  const int max_threads = config_.cores * config_.smt_per_core;
  const int clamped = std::min(threads, max_threads);
  return (clamped + config_.cores - 1) / config_.cores;
}

double TimingModel::regularity(const trace::AccessPhase& phase) {
  using trace::Pattern;
  switch (phase.pattern) {
    case Pattern::Sequential:
    case Pattern::Compute:
      return 1.0;
    case Pattern::Random:
    case Pattern::PointerChase:
      return 0.0;
    case Pattern::Strided: {
      // Prefetchers track strides up to ~2 KB; past a page the stream is
      // effectively random for both prefetch and DRAM page locality.
      const double s = phase.stride_bytes;
      return 1.0 - smooth01(s, 2.0 * 1024.0, 64.0 * 1024.0);
    }
  }
  return 0.0;
}

double TimingModel::concurrency_lines(const trace::AccessPhase& phase, int threads) const {
  const int ht = ht_per_core(threads);
  const auto ht_idx = static_cast<std::size_t>(ht - 1);
  const int active_threads = std::min(threads, config_.cores * config_.smt_per_core);
  const int active_cores = std::min(threads, config_.cores);

  if (phase.mlp_override > 0.0) {
    const double ht_eff =
        static_cast<double>(ht) / (1.0 + phase.smt_beta * static_cast<double>(ht - 1));
    return phase.mlp_override * static_cast<double>(active_cores) * ht_eff;
  }

  using trace::Pattern;
  switch (phase.pattern) {
    case Pattern::Compute:
      return 0.0;
    case Pattern::PointerChase:
      return static_cast<double>(phase.chains_per_thread) *
             static_cast<double>(active_threads);
    default:
      break;
  }

  const double seq_conc = static_cast<double>(active_cores) * config_.seq_mlp_per_core *
                          params::kSeqSmtScale[ht_idx];
  const double rand_conc = static_cast<double>(active_threads) *
                           config_.rand_mlp_per_thread * params::kRandSmtScale[ht_idx];
  const double r = regularity(phase);
  return r * seq_conc + (1.0 - r) * rand_conc;
}

double TimingModel::effective_latency_ns(const trace::AccessPhase& phase,
                                         const params::NodeParams& node,
                                         const params::NodeParams& dram,
                                         double utilization) const {
  const double r = regularity(phase);

  // Prefetched streams overlap the directory walk and, with huge pages, see
  // one TLB fill per 2 MiB — both effectively free. Random accesses pay the
  // directory and the expected paging penalty on every miss. Page tables
  // live in the same node as the data (membind binds them too), so the walk
  // cost scales with the node's latency.
  const double walk_scale = node.idle_latency_ns / dram.idle_latency_ns;
  const double dir_ns = (1.0 - r) * hierarchy_.directory_overhead_ns();
  const double tlb_ns =
      (1.0 - r) * walk_scale * tlb_.expected_penalty_ns(phase.footprint_bytes);

  double lat = node.idle_latency_ns + dir_ns + tlb_ns;

  // Load-dependent queueing: as demand approaches the node cap, each access
  // waits on controller queues. Clamp utilization below 1 to keep the model
  // finite at the cap (throughput there is handled by the cap itself).
  const double u = std::clamp(utilization, 0.0, 0.97);
  lat *= 1.0 + config_.queue_coefficient * u * u / (1.0 - u);
  return lat;
}

double TimingModel::memory_traffic_bytes(const trace::AccessPhase& phase,
                                         int threads) const {
  using trace::Pattern;
  if (phase.pattern == Pattern::Compute) return 0.0;

  const double line = static_cast<double>(params::kLineBytes);
  const double r = regularity(phase);

  // Line amplification: sub-line granules still move whole lines.
  const double granule = static_cast<double>(phase.granule_bytes);
  const double amplification = std::max(1.0, line / granule);

  // L2 filtering.
  double miss_fraction;
  if (phase.l2_hit_override >= 0.0) {
    miss_fraction = 1.0 - phase.l2_hit_override;
  } else if (r >= 0.5) {
    // Repeated sweeps: the first pass always misses; later passes hit while
    // the footprint stays L2-resident.
    const double h = hierarchy_.sweep_l2_hit(phase.footprint_bytes);
    miss_fraction = (1.0 + (phase.sweeps - 1.0) * (1.0 - h)) / phase.sweeps;
  } else {
    const double h = hierarchy_.random_l2_hit(phase.footprint_bytes, threads);
    miss_fraction = 1.0 - h;
  }

  // Stores add write-allocate fills plus dirty evictions.
  const double write_factor = 1.0 + phase.write_fraction;

  return phase.logical_bytes * amplification * miss_fraction * write_factor;
}

double TimingModel::node_cap_gbs(const trace::AccessPhase& phase,
                                 const params::NodeParams& node) const {
  const double r = regularity(phase);
  return r * node.stream_bw_gbs + (1.0 - r) * node.random_bw_gbs;
}

TimingModel::NodePath TimingModel::time_on_node(const trace::AccessPhase& phase,
                                                const params::NodeParams& node,
                                                const params::NodeParams& dram,
                                                int threads, double bytes,
                                                double conc_share) const {
  NodePath path;
  path.bytes = bytes;
  path.cap_gbs = node_cap_gbs(phase, node);
  if (bytes <= 0.0) return path;

  const double conc = concurrency_lines(phase, threads) * conc_share;
  // Little's law at unloaded latency gives the demand; the node cap bounds
  // the throughput. At the cap, queueing raises the *observed* latency until
  // demand meets supply (M/D/1 equilibrium) — it does not push throughput
  // below the cap, so inflation is applied to the reported latency only.
  const double lat0 = effective_latency_ns(phase, node, dram, 0.0);
  const double demand = conc * static_cast<double>(params::kLineBytes) / lat0;

  path.bw_gbs = std::min(path.cap_gbs, demand);
  path.capped = demand >= path.cap_gbs;
  const double util = path.bw_gbs / path.cap_gbs;
  path.latency_ns = path.capped
                        ? conc * static_cast<double>(params::kLineBytes) / path.bw_gbs
                        : effective_latency_ns(phase, node, dram, util);
  path.seconds = bytes / (path.bw_gbs * kNsPerSecond) * 1.0;  // bytes / (GB/s * 1e9 B/GB)
  return path;
}

PhaseTiming TimingModel::time_phase(const trace::AccessPhase& phase, const RunConfig& run,
                                    const MemoryTopology& topology,
                                    const std::vector<double>& fractions) const {
  phase.validate();
  if (!run.valid()) {
    throw std::invalid_argument("time_phase: invalid RunConfig");
  }
  const std::size_t n = topology.tier_count();
  if (fractions.size() != n) {
    throw std::invalid_argument("time_phase: one fraction per tier required");
  }
  double fraction_sum = 0.0;
  for (const double f : fractions) {
    if (f < 0.0 || f > 1.0) {
      throw std::invalid_argument("time_phase: fraction outside [0,1]");
    }
    fraction_sum += f;
  }
  if (std::abs(fraction_sum - 1.0) > 1e-6) {
    throw std::invalid_argument("time_phase: fractions must sum to 1");
  }

  PhaseTiming out;
  const int threads = run.threads;
  const int ht = ht_per_core(threads);

  double compute_seconds = 0.0;
  if (phase.flops > 0.0) {
    const double gflops = params::attainable_gflops(ht) * phase.compute_efficiency;
    compute_seconds = phase.flops / (gflops * 1e9);
  }

  const double mem_bytes = memory_traffic_bytes(phase, threads);
  out.memory_bytes = mem_bytes;

  double mem_seconds = 0.0;
  if (mem_bytes > 0.0) {
    const int dram = topology.dram_tier();
    const params::NodeParams& ddr_node = topology.tier(static_cast<std::size_t>(dram)).params;
    const int front =
        run.config == MemConfig::CacheMode ? topology.cache_front_of(dram) : -1;
    const bool cache_mode = front != -1;

    // Per-tier byte shares. In cache mode the DRAM tier and its cache front
    // fold into one blended share, which takes the remainder. In flat mode
    // the last tier with a non-zero fraction takes it: on two tiers {f, 1-f}
    // that is exactly `mem - mem * f`, and a trailing empty tier (the NVM of
    // a two-node plan on knl_nvm) stays empty instead of absorbing an ulp.
    // The remainder subtracts the earlier shares only; fl(fl(a+b)-b) != a.
    std::size_t remainder_tier = n;
    if (!cache_mode) {
      while (fractions[remainder_tier - 1] <= 0.0) --remainder_tier;
      --remainder_tier;
    }

    // Each share is timed as soon as it is known, in tier order with the
    // cache-mode blend last; the slowest share (the first on ties) dominates.
    double dominant_seconds = -1.0;
    double dominant_latency = 0.0;
    bool dominant_capped = false;
    double hit_rate = 1.0;
    const auto time_share = [&](int tier, double bytes, double conc_share) {
      if (bytes <= 0.0) return;
      double seconds = 0.0;
      double latency_ns = 0.0;
      bool capped = false;
      if (tier == -1) {
        // The cache-mode blend: a direct-mapped front-tier cache over the
        // DRAM tier.
        const params::NodeParams& hbm_node =
            topology.tier(static_cast<std::size_t>(front)).params;
        const double r = regularity(phase);
        const double hit = r >= 0.5 ? mcdram_.sweep_hit_rate(phase.footprint_bytes)
                                    : mcdram_.random_hit_rate(phase.footprint_bytes);
        hit_rate = hit;
        const double hbm_cap = node_cap_gbs(phase, hbm_node);
        const double ddr_cap = node_cap_gbs(phase, ddr_node);
        const double blended_cap = mcdram_.effective_bandwidth_gbs(hit, hbm_cap, ddr_cap);
        const double conc = concurrency_lines(phase, threads) * conc_share;
        const double lat_hbm = effective_latency_ns(phase, hbm_node, ddr_node, 0.0);
        const double lat_ddr = effective_latency_ns(phase, ddr_node, ddr_node, 0.0);
        const double lat = mcdram_.effective_latency_ns(hit, lat_hbm, lat_ddr);
        const double demand = conc * static_cast<double>(params::kLineBytes) / lat;
        const double bw = std::min(blended_cap, demand);
        capped = demand >= blended_cap;
        latency_ns = capped ? conc * static_cast<double>(params::kLineBytes) / bw : lat;
        seconds = bytes / (bw * kNsPerSecond);
      } else {
        const NodePath path =
            time_on_node(phase, topology.tier(static_cast<std::size_t>(tier)).params,
                         ddr_node, threads, bytes, conc_share);
        seconds = path.seconds;
        latency_ns = path.latency_ns;
        capped = path.capped;
      }
      if (seconds > dominant_seconds) {
        dominant_seconds = seconds;
        dominant_latency = latency_ns;
        dominant_capped = capped;
      }
      mem_seconds = std::max(mem_seconds, seconds);
    };

    double bytes_before = 0.0;
    double conc_before = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const int tier = static_cast<int>(i);
      if (cache_mode && (tier == dram || tier == front)) continue;
      const bool rest = i == remainder_tier;
      const double bytes = rest ? mem_bytes - bytes_before : mem_bytes * fractions[i];
      const double conc_share = rest ? 1.0 - conc_before : fractions[i];
      bytes_before += bytes;
      conc_before += conc_share;
      time_share(tier, bytes, conc_share);
    }
    // Everything not placed on a direct tier drains through the cache.
    if (cache_mode) time_share(-1, mem_bytes - bytes_before, 1.0 - conc_before);
    out.effective_latency_ns = dominant_latency;
    out.bandwidth_bound = dominant_capped;
    out.concurrency_lines = concurrency_lines(phase, threads);
    out.mcdram_hit_rate = hit_rate;
  }

  out.seconds = std::max(mem_seconds, compute_seconds);
  out.compute_bound = compute_seconds > mem_seconds;
  if (out.compute_bound) out.bandwidth_bound = false;
  if (out.seconds > 0.0 && mem_bytes > 0.0) {
    out.achieved_bw_gbs = mem_bytes / (out.seconds * kNsPerSecond) * 1.0;
  }
  return out;
}

}  // namespace knl::sim
