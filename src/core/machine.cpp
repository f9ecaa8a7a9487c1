#include "core/machine.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace knl {

namespace {

/// Fractions placing every byte on `tier`.
std::vector<double> all_on(const sim::MemoryTopology& topology, int tier) {
  std::vector<double> fractions(topology.tier_count(), 0.0);
  fractions[static_cast<std::size_t>(tier)] = 1.0;
  return fractions;
}

/// Coarse-grained placement of a paper configuration: flat HBM binds to the
/// fast tier; DRAM and cache mode keep their pages in DRAM.
Placement placement_of(MemConfig config) {
  return config == MemConfig::HBM ? Placement::HBM : Placement::DDR;
}

}  // namespace

Machine::Machine(MachineConfig config) : config_(std::move(config)), timing_(config_.timing) {
  config_.validate();
  fast_ = config_.topology.fast_tier();
  dram_ = config_.topology.dram_tier();
  fingerprint_ = config_.fingerprint();
}

std::string Machine::describe() const {
  const auto& t = config_.timing;
  const sim::MemoryTopology& topology = config_.topology;
  const params::NodeParams& ddr = config_.dram_tier();
  const params::NodeParams& hbm = config_.fast_tier();
  std::ostringstream os;
  os << "simulated KNL-class node (paper testbed: KNL 7210, quadrant mode)\n";
  os << "  cores: " << t.cores << " @ " << params::kClockGHz << " GHz, "
     << t.smt_per_core << " HT/core\n";
  os << "  L1: " << params::kL1Bytes / KiB << " KiB/core; L2: "
     << params::kL2Bytes / MiB << " MiB/tile x " << params::kTiles << " tiles\n";
  os << "  DDR:    " << ddr.capacity_bytes / GiB << " GiB, stream "
     << ddr.stream_bw_gbs << " GB/s (paper Fig. 2), random " << ddr.random_bw_gbs
     << " GB/s, idle " << ddr.idle_latency_ns << " ns (paper SIV-A)\n";
  os << "  MCDRAM: " << hbm.capacity_bytes / GiB << " GiB, stream cap "
     << hbm.stream_bw_gbs << " GB/s (Fig. 5 @4HT), random " << hbm.random_bw_gbs
     << " GB/s, idle " << hbm.idle_latency_ns << " ns (paper SIV-A)\n";
  os << "  MLP: seq " << t.seq_mlp_per_core << " lines/core (330 GB/s anchor), "
     << "random " << t.rand_mlp_per_thread << " lines/thread\n";
  os << "  MCDRAM cache: direct-mapped " << t.mcdram.capacity_bytes / GiB
     << " GiB, sweep knee " << t.mcdram.sweep_knee << " sharpness "
     << t.mcdram.sweep_sharpness << " (cache-mode STREAM anchors)\n";
  os << "  TLB: " << t.tlb.entries << " x " << t.tlb.page_bytes / MiB
     << " MiB pages (Fig. 3 rise at 128 MiB)\n";
  os << "  topology: " << topology.name << ", " << topology.tier_count()
     << " tiers (" << topology.tier_names() << ")\n";
  for (std::size_t i = 0; i < topology.tier_count(); ++i) {
    const sim::MemoryTier& tier = topology.tier(i);
    os << "    [" << i << "] " << tier.name << " (" << sim::to_string(tier.kind)
       << "): " << tier.params.capacity_bytes / GiB << " GiB, stream "
       << tier.params.stream_bw_gbs << " GB/s, idle " << tier.params.idle_latency_ns
       << " ns, controllers " << tier.controllers_begin << ".." << tier.controllers_end;
    if (tier.backing != -1) {
      os << ", spills to " << topology.tier(static_cast<std::size_t>(tier.backing)).name;
    }
    if (tier.cache_front) os << ", cache-capable";
    os << "\n";
  }
  return os.str();
}

mem::NumaTopology Machine::topology(MemConfig config) const {
  const MemoryMode mode =
      config == MemConfig::CacheMode ? MemoryMode::Cache : MemoryMode::Flat;
  return mem::NumaTopology(mode, 0.5, config_.dram_tier().capacity_bytes,
                           config_.fast_tier().capacity_bytes);
}

Machine::Resolved Machine::resolve_waterfall(std::uint64_t resident_bytes, int preferred,
                                             bool strict) const {
  const sim::MemoryTopology& topology = config_.topology;
  const sim::TierPlacement placed =
      sim::place_waterfall(topology, resident_bytes, preferred, strict);
  Resolved resolved;
  if (!placed.ok) {
    resolved.error = placed.error;
    return resolved;
  }
  resolved.ok = true;
  resolved.fractions.assign(topology.tier_count(), 0.0);
  for (std::size_t i = 0; i < topology.tier_count(); ++i) {
    resolved.fractions[i] = placed.fraction_in(static_cast<int>(i));
  }
  // Empty resident sets place nowhere; charge the preferred tier so the
  // fractions still form a distribution for the timing model.
  if (resident_bytes == 0) {
    resolved.fractions[static_cast<std::size_t>(preferred)] = 1.0;
  }
  return resolved;
}

Machine::Resolved Machine::resolve_interleave(std::uint64_t resident_bytes) const {
  // numactl --interleave over every tier: pages round-robin across the
  // tiers; a tier that fills drops out and the survivors keep rotating.
  // Byte-granular equivalent: repeatedly split the remainder evenly over
  // the tiers with free capacity.
  const sim::MemoryTopology& topology = config_.topology;
  const std::size_t n = topology.tier_count();
  std::vector<std::uint64_t> taken(n, 0);
  std::uint64_t remaining = resident_bytes;
  while (remaining > 0) {
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < n; ++i) {
      if (taken[i] < topology.tier(i).params.capacity_bytes) open.push_back(i);
    }
    if (open.empty()) break;
    const std::uint64_t base = remaining / open.size();
    std::uint64_t extra = remaining % open.size();
    std::uint64_t absorbed = 0;
    for (const std::size_t i : open) {
      std::uint64_t want = base + (extra > 0 ? 1 : 0);
      if (extra > 0) --extra;
      const std::uint64_t free_bytes = topology.tier(i).params.capacity_bytes - taken[i];
      const std::uint64_t got = std::min(want, free_bytes);
      taken[i] += got;
      absorbed += got;
    }
    if (absorbed == 0) break;
    remaining -= absorbed;
  }
  Resolved resolved;
  if (remaining > 0) {
    resolved.error = "interleave: resident set exceeds total memory capacity";
    return resolved;
  }
  resolved.ok = true;
  resolved.fractions.assign(n, 0.0);
  if (resident_bytes == 0) {
    resolved.fractions[static_cast<std::size_t>(dram_)] = 1.0;
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      resolved.fractions[i] =
          static_cast<double>(taken[i]) / static_cast<double>(resident_bytes);
    }
  }
  return resolved;
}

Machine::Resolved Machine::resolve(std::uint64_t resident_bytes,
                                   Placement placement) const {
  // membind to the fast tier is strict (numactl semantics); membind to
  // DRAM (also cache mode's residency) and --preferred waterfall down the
  // backing chain, so DDR overflow demotes to NVM where a machine declares
  // one and fails otherwise.
  switch (placement) {
    case Placement::DDR:
      return resolve_waterfall(resident_bytes, dram_, /*strict=*/false);
    case Placement::HBM:
      return resolve_waterfall(resident_bytes, fast_, /*strict=*/true);
    case Placement::Preferred:
      return resolve_waterfall(resident_bytes, fast_, /*strict=*/false);
    case Placement::Interleave:
      return resolve_interleave(resident_bytes);
  }
  throw std::invalid_argument("Machine: unknown placement");
}

DetailedRunResult Machine::run_impl(const trace::AccessProfile& profile,
                                    const RunConfig& run_config, const Resolved& resolved,
                                    bool want_phases) const {
  if (!run_config.valid()) throw std::invalid_argument("Machine::run: invalid RunConfig");
  DetailedRunResult out;
  RunResult& r = out.summary;
  r.feasible = resolved.ok;
  if (!resolved.ok) {
    r.infeasible_reason = resolved.error;
    return out;
  }

  double latency_weight = 0.0;
  double hit_weight = 0.0;
  for (const auto& phase : profile.phases()) {
    const sim::PhaseTiming t =
        timing_.time_phase(phase, run_config, config_.topology, resolved.fractions);
    r.seconds += t.seconds;
    r.bytes_from_memory += t.memory_bytes;
    r.flops += phase.flops;
    r.avg_latency_ns += t.effective_latency_ns * t.memory_bytes;
    latency_weight += t.memory_bytes;
    r.mcdram_hit_rate += t.mcdram_hit_rate * t.memory_bytes;
    hit_weight += t.memory_bytes;
    if (want_phases) out.phases.push_back(PhaseReport{phase.name, t});
  }
  if (latency_weight > 0.0) r.avg_latency_ns /= latency_weight;
  if (hit_weight > 0.0) r.mcdram_hit_rate /= hit_weight;
  if (r.seconds > 0.0) r.achieved_bw_gbs = r.bytes_from_memory / (r.seconds * 1e9);
  return out;
}

RunResult Machine::run(const trace::AccessProfile& profile,
                       const RunConfig& run_config) const {
  return run_impl(profile, run_config,
                  resolve(profile.resident_bytes(), placement_of(run_config.config)),
                  /*want_phases=*/false)
      .summary;
}

std::vector<RunResult> Machine::run_threads(const trace::AccessProfile& profile,
                                            MemConfig config,
                                            const std::vector<int>& threads) const {
  const Resolved resolved = resolve(profile.resident_bytes(), placement_of(config));
  std::vector<RunResult> out;
  out.reserve(threads.size());
  for (const int t : threads) {
    out.push_back(
        run_impl(profile, RunConfig{config, t, 0.0}, resolved, /*want_phases=*/false).summary);
  }
  return out;
}

DetailedRunResult Machine::run_detailed(const trace::AccessProfile& profile,
                                        const RunConfig& run_config) const {
  return run_impl(profile, run_config,
                  resolve(profile.resident_bytes(), placement_of(run_config.config)),
                  /*want_phases=*/true);
}

RunResult Machine::run_flat_placement(const trace::AccessProfile& profile, int threads,
                                      Placement placement) const {
  // Flat mode; the split is in the fractions.
  return run_impl(profile, RunConfig{MemConfig::DRAM, threads, 0.0},
                  resolve(profile.resident_bytes(), placement), /*want_phases=*/false)
      .summary;
}

RunResult Machine::run_hybrid(const trace::AccessProfile& profile, int threads,
                              double cache_fraction, std::uint64_t flat_hbm_bytes) const {
  if (cache_fraction < 0.0 || cache_fraction > 1.0) {
    throw std::invalid_argument("run_hybrid: cache_fraction outside [0,1]");
  }
  const sim::MemoryTopology& topology = config_.topology;
  const auto hbm_total = topology.tier(static_cast<std::size_t>(fast_)).params.capacity_bytes;
  const auto cache_bytes =
      static_cast<std::uint64_t>(static_cast<double>(hbm_total) * cache_fraction);
  const auto flat_capacity = hbm_total - cache_bytes;
  const std::uint64_t resident = profile.resident_bytes();
  if (flat_hbm_bytes > flat_capacity) {
    RunResult r;
    r.feasible = false;
    r.infeasible_reason = "hybrid: flat MCDRAM partition smaller than requested placement";
    return r;
  }
  if (resident < flat_hbm_bytes) flat_hbm_bytes = resident;
  if (resident - flat_hbm_bytes >
      topology.tier(static_cast<std::size_t>(dram_)).params.capacity_bytes) {
    RunResult r;
    r.feasible = false;
    r.infeasible_reason = "hybrid: DDR cannot hold the spill";
    return r;
  }

  // Rebuild a machine whose MCDRAM-cache capacity is the cache partition and
  // whose flat-HBM traffic share matches the explicit placement; the DDR
  // share then flows through the partial cache (cache-mode path).
  sim::TimingConfig hybrid_cfg = config_.timing;
  hybrid_cfg.mcdram.capacity_bytes = std::max<std::uint64_t>(cache_bytes, 1);
  const sim::TimingModel hybrid_timing(hybrid_cfg);

  const double flat_share =
      resident == 0 ? 0.0
                    : static_cast<double>(flat_hbm_bytes) / static_cast<double>(resident);

  const std::vector<double> on_fast = all_on(topology, fast_);
  const std::vector<double> on_dram = all_on(topology, dram_);

  RunResult r;
  r.feasible = true;
  double latency_weight = 0.0;
  for (const auto& phase : profile.phases()) {
    // Flat share goes straight to HBM; the remainder is timed through the
    // (shrunken) cache path when a cache partition exists, else plain DDR.
    RunConfig flat_rc{MemConfig::DRAM, threads, 0.0};
    RunConfig cache_rc{cache_bytes > 0 ? MemConfig::CacheMode : MemConfig::DRAM, threads,
                       0.0};

    trace::AccessPhase hbm_part = phase;
    trace::AccessPhase ddr_part = phase;
    hbm_part.logical_bytes = phase.logical_bytes * flat_share;
    hbm_part.flops = phase.flops * flat_share;
    ddr_part.logical_bytes = phase.logical_bytes * (1.0 - flat_share);
    ddr_part.flops = phase.flops * (1.0 - flat_share);

    // The two sub-streams share the cores' outstanding-request budget, so
    // their times add (equivalent to splitting concurrency when latency-
    // bound; conservative about controller overlap when bandwidth-bound).
    double seconds = 0.0;
    double bytes = 0.0;
    double lat_acc = 0.0;
    if (hbm_part.logical_bytes > 0.0) {
      const auto t = hybrid_timing.time_phase(hbm_part, flat_rc, topology, on_fast);
      seconds += t.seconds;
      bytes += t.memory_bytes;
      lat_acc += t.effective_latency_ns * t.memory_bytes;
    }
    if (ddr_part.logical_bytes > 0.0) {
      const auto t = hybrid_timing.time_phase(ddr_part, cache_rc, topology, on_dram);
      seconds += t.seconds;
      bytes += t.memory_bytes;
      lat_acc += t.effective_latency_ns * t.memory_bytes;
      r.mcdram_hit_rate = t.mcdram_hit_rate;
    }
    if (phase.pattern == trace::Pattern::Compute && phase.flops > 0.0) {
      // Pure-compute phases do not split: time once at full flops.
      const auto t = hybrid_timing.time_phase(phase, flat_rc, topology, on_dram);
      seconds = t.seconds;
    }
    r.seconds += seconds;
    r.bytes_from_memory += bytes;
    r.flops += phase.flops;
    r.avg_latency_ns += lat_acc;
    latency_weight += bytes;
  }
  if (latency_weight > 0.0) r.avg_latency_ns /= latency_weight;
  if (r.seconds > 0.0) r.achieved_bw_gbs = r.bytes_from_memory / (r.seconds * 1e9);
  return r;
}

}  // namespace knl
