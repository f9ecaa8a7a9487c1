#include "core/machine_config.hpp"

#include <cstring>
#include <stdexcept>
#include <type_traits>

namespace knl {

namespace {

// FNV-1a over the raw bytes of trivially-copyable values. Doubles are mixed
// via their bit pattern, so any parameter change — however small — changes
// the fingerprint, and equal configs always agree.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void mix_bytes(std::uint64_t& h, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
}

template <typename T>
void mix(std::uint64_t& h, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  mix_bytes(h, &value, sizeof(value));
}

void mix_node(std::uint64_t& h, const params::NodeParams& node) {
  mix(h, node.capacity_bytes);
  mix(h, node.peak_bw_gbs);
  mix(h, node.stream_bw_gbs);
  mix(h, node.random_bw_gbs);
  mix(h, node.idle_latency_ns);
}

// The canonical two-tier derivation: what the timing view has always
// implied. MCDRAM spans the 8 EDC controllers and can front DDR as a cache;
// DDR4 spans the 6 DDR channels. With default timing this is exactly
// sim::MemoryTopology::knl7210().
sim::MemoryTopology derived_topology(const sim::TimingConfig& timing) {
  sim::MemoryTopology topology;
  topology.name = "knl7210";
  topology.tiers = {
      sim::MemoryTier{.name = "MCDRAM",
                      .kind = sim::TierKind::HBM,
                      .params = timing.hbm,
                      .controllers_begin = 0,
                      .controllers_end = 8,
                      .backing = 1,
                      .cache_front = true},
      sim::MemoryTier{.name = "DDR4",
                      .kind = sim::TierKind::DRAM,
                      .params = timing.ddr,
                      .controllers_begin = 8,
                      .controllers_end = 14,
                      .backing = -1,
                      .cache_front = false},
  };
  return topology;
}

}  // namespace

sim::MemoryTopology MachineConfig::resolved_topology() const {
  return has_declared_topology() ? topology : derived_topology(timing);
}

void MachineConfig::apply_topology(const sim::MemoryTopology& declared) {
  declared.validate();
  topology = declared;
  const sim::MemoryTier& fast = declared.tier(
      static_cast<std::size_t>(declared.fast_tier()));
  const sim::MemoryTier& dram = declared.tier(
      static_cast<std::size_t>(declared.dram_tier()));
  timing.hbm = fast.params;
  timing.ddr = dram.params;
  if (fast.cache_front) timing.mcdram.capacity_bytes = fast.params.capacity_bytes;
}

MachineConfig MachineConfig::from_machine_file(const std::string& text) {
  MachineConfig cfg;
  cfg.apply_topology(sim::MemoryTopology::parse_machine_file(text));
  return cfg;
}

void MachineConfig::validate() const {
  if (has_declared_topology()) {
    topology.validate();
    const sim::MemoryTier& fast =
        topology.tier(static_cast<std::size_t>(topology.fast_tier()));
    const sim::MemoryTier& dram =
        topology.tier(static_cast<std::size_t>(topology.dram_tier()));
    if (!(fast.params == timing.hbm) || !(dram.params == timing.ddr)) {
      throw std::invalid_argument(
          "MachineConfig: declared topology and timing views disagree "
          "(use apply_topology to keep them in sync)");
    }
  }
  if (timing.ddr.peak_bw_gbs <= 0.0 || timing.hbm.peak_bw_gbs <= 0.0) {
    throw std::invalid_argument("MachineConfig: bandwidths must be positive");
  }
  if (timing.ddr.idle_latency_ns <= 0.0 || timing.hbm.idle_latency_ns <= 0.0) {
    throw std::invalid_argument("MachineConfig: latencies must be positive");
  }
  if (timing.mcdram.capacity_bytes == 0) {
    throw std::invalid_argument("MachineConfig: cache size must be positive");
  }
}

std::uint64_t MachineConfig::fingerprint() const {
  std::uint64_t h = kFnvOffset;
  // Schema version first: a bump invalidates every cached result derived
  // from the old field set, even where raw parameter bytes would collide.
  mix(h, schema_version);
  // Timing view.
  mix_node(h, timing.ddr);
  mix_node(h, timing.hbm);
  mix(h, timing.hierarchy.l1_bytes);
  mix(h, timing.hierarchy.l2_tile_bytes);
  mix(h, timing.hierarchy.tiles);
  mix(h, timing.hierarchy.l1_latency_ns);
  mix(h, timing.hierarchy.l2_latency_ns);
  mix(h, timing.hierarchy.l2_effectiveness);
  mix(h, timing.hierarchy.mesh.tiles_x);
  mix(h, timing.hierarchy.mesh.tiles_y);
  mix(h, timing.hierarchy.mesh.hop_latency_ns);
  mix(h, timing.hierarchy.mesh.directory_lookup_ns);
  mix(h, timing.hierarchy.mesh.mode);
  mix(h, timing.tlb.page_bytes);
  mix(h, timing.tlb.entries);
  mix(h, timing.tlb.walk_cached_ns);
  mix(h, timing.tlb.walk_memory_ns);
  mix(h, timing.tlb.walk_thrash_bytes);
  mix(h, timing.mcdram.capacity_bytes);
  mix(h, timing.mcdram.line_bytes);
  mix(h, timing.mcdram.tag_latency_ns);
  mix(h, timing.mcdram.miss_overhead_s_per_gb);
  mix(h, timing.mcdram.sweep_knee);
  mix(h, timing.mcdram.sweep_sharpness);
  mix(h, timing.cores);
  mix(h, timing.smt_per_core);
  mix(h, timing.seq_mlp_per_core);
  mix(h, timing.rand_mlp_per_thread);
  mix(h, timing.queue_coefficient);
  // Frozen block. Configs used to carry a page-placement view (page size,
  // DDR and HBM node envelopes, fragmentation, seed) mixed in here. No
  // model code reads it any more, but goldens and persisted caches are keyed
  // on the historical fingerprint, so the same bytes are mixed in the same
  // order, rebuilt from what that view always held: the declared tiers when
  // a topology is declared, else the default envelopes with the timing
  // view's capacities. That is why knl7210_equal_latency() still mixes the
  // default HBM latency here, not its timing view's equalized one.
  mix(h, params::kPageBytes);
  if (has_declared_topology()) {
    mix_node(h, topology.tier(static_cast<std::size_t>(topology.dram_tier())).params);
    mix_node(h, topology.tier(static_cast<std::size_t>(topology.fast_tier())).params);
  } else {
    params::NodeParams ddr = params::kDdr;
    params::NodeParams hbm = params::kHbm;
    ddr.capacity_bytes = timing.ddr.capacity_bytes;
    hbm.capacity_bytes = timing.hbm.capacity_bytes;
    mix_node(h, ddr);
    mix_node(h, hbm);
  }
  // The page view's fragmentation probability and allocator seed.
  constexpr double kPageViewFragmentation = 0.05;
  constexpr std::uint64_t kPageViewSeed = 0x9E3779B97F4A7C15ull;
  mix(h, kPageViewFragmentation);
  mix(h, kPageViewSeed);
  // Topology: mixed only when it deviates from the canonical two-tier
  // derivation. A declaration equal to the derivation leaves the resolved
  // topology unchanged, so skipping it keeps the mapping injective *and*
  // preserves the KNL fingerprint embedded in the golden artifacts.
  if (has_declared_topology() && !(topology == derived_topology(timing))) {
    topology.mix_fingerprint(h);
  }
  return h;
}

MachineConfig MachineConfig::knl7210() { return MachineConfig{}; }

MachineConfig MachineConfig::knl7210_equal_latency() {
  MachineConfig cfg;
  cfg.timing.hbm.idle_latency_ns = cfg.timing.ddr.idle_latency_ns;
  return cfg;
}

MachineConfig MachineConfig::knl7210_snc4() {
  MachineConfig cfg;
  cfg.timing.hierarchy.mesh.mode = sim::ClusterMode::Snc4;
  // Directory confined to a quadrant: a slightly cheaper lookup than
  // quadrant mode's memory-side co-location.
  cfg.timing.hierarchy.mesh.directory_lookup_ns = 9.0;
  return cfg;
}

MachineConfig MachineConfig::xeon_max() {
  MachineConfig cfg;
  cfg.apply_topology(sim::MemoryTopology::xeon_max());
  // Sapphire Rapids core complex: 56 performance cores, 2-way SMT, deeper
  // out-of-order windows than KNL's Silvermont-derived cores.
  cfg.timing.cores = 56;
  cfg.timing.smt_per_core = 2;
  cfg.timing.seq_mlp_per_core = 24.0;
  cfg.timing.rand_mlp_per_thread = 8.0;
  return cfg;
}

MachineConfig MachineConfig::knl_nvm() {
  MachineConfig cfg;
  cfg.apply_topology(sim::MemoryTopology::knl_nvm());
  return cfg;
}

MachineConfig MachineConfig::ddr_only() {
  MachineConfig cfg;
  // Shrink MCDRAM to a negligible sliver rather than zero so invariants and
  // topology math remain well-defined; HBM placements will simply fail.
  cfg.timing.hbm.capacity_bytes = params::kPageBytes;
  return cfg;
}

}  // namespace knl
