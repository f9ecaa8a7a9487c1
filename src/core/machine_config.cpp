#include "core/machine_config.hpp"

#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <utility>

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

// The canonical two-tier KNL shape built from `fast` and `dram`: MCDRAM
// spans the 8 EDC controllers and can front DDR as a cache; DDR4 spans the
// 6 DDR channels. With default envelopes this is exactly knl7210(). Runs on
// every fingerprint(), so it compares against one shape built once.
bool is_canonical_knl(const sim::MemoryTopology& topology,
                      const params::NodeParams& fast, const params::NodeParams& dram) {
  static const sim::MemoryTopology canonical = sim::MemoryTopology::knl7210();
  if (topology.tier_count() != 2 || topology.name != canonical.name) return false;
  const auto same_shape = [](const sim::MemoryTier& a, const sim::MemoryTier& b) {
    return a.name == b.name && a.kind == b.kind &&
           a.controllers_begin == b.controllers_begin &&
           a.controllers_end == b.controllers_end && a.backing == b.backing &&
           a.cache_front == b.cache_front;
  };
  return same_shape(topology.tiers[0], canonical.tiers[0]) &&
         same_shape(topology.tiers[1], canonical.tiers[1]) &&
         topology.tiers[0].params == fast && topology.tiers[1].params == dram;
}

// A KNL-base config declaring `topology`; a cache-capable fast tier also
// sizes the memory-side MCDRAM cache.
MachineConfig declaring(sim::MemoryTopology topology) {
  MachineConfig cfg;
  cfg.topology = std::move(topology);
  const sim::MemoryTier& fast =
      cfg.topology.tier(static_cast<std::size_t>(cfg.topology.fast_tier()));
  if (fast.cache_front) cfg.timing.mcdram.capacity_bytes = fast.params.capacity_bytes;
  return cfg;
}

}  // namespace

params::NodeParams& MachineConfig::fast_tier() {
  return topology.tiers.at(static_cast<std::size_t>(topology.fast_tier())).params;
}

const params::NodeParams& MachineConfig::fast_tier() const {
  return topology.tier(static_cast<std::size_t>(topology.fast_tier())).params;
}

params::NodeParams& MachineConfig::dram_tier() {
  return topology.tiers.at(static_cast<std::size_t>(topology.dram_tier())).params;
}

const params::NodeParams& MachineConfig::dram_tier() const {
  return topology.tier(static_cast<std::size_t>(topology.dram_tier())).params;
}

MachineConfig MachineConfig::from_machine_file(const std::string& text) {
  return declaring(sim::MemoryTopology::parse_machine_file(text));
}

void MachineConfig::validate() const {
  topology.validate();
  if (timing.mcdram.capacity_bytes == 0) {
    throw std::invalid_argument("MachineConfig: cache size must be positive");
  }
}

std::uint64_t MachineConfig::fingerprint() const {
  const params::NodeParams& fast = fast_tier();
  const params::NodeParams& dram = dram_tier();
  std::uint64_t h = kFnvOffset;
  // Schema version first: a bump invalidates every cached result derived
  // from the old field set, even where raw parameter bytes would collide.
  mix(h, schema_version);
  // Tier envelopes, then the timing parameters.
  mix_node(h, dram);
  mix_node(h, fast);
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
  // order, rebuilt from what that view always held: the default envelopes
  // with the tier capacities on the canonical KNL shape, else the tier
  // envelopes themselves. That is why knl7210_equal_latency() still mixes
  // the default HBM latency here, not its fast tier's equalized one.
  const bool canonical = is_canonical_knl(topology, fast, dram);
  mix(h, params::kPageBytes);
  if (canonical) {
    params::NodeParams page_ddr = params::kDdr;
    params::NodeParams page_hbm = params::kHbm;
    page_ddr.capacity_bytes = dram.capacity_bytes;
    page_hbm.capacity_bytes = fast.capacity_bytes;
    mix_node(h, page_ddr);
    mix_node(h, page_hbm);
  } else {
    mix_node(h, dram);
    mix_node(h, fast);
  }
  // The page view's fragmentation probability and allocator seed.
  constexpr double kPageViewFragmentation = 0.05;
  constexpr std::uint64_t kPageViewSeed = 0x9E3779B97F4A7C15ull;
  mix(h, kPageViewFragmentation);
  mix(h, kPageViewSeed);
  // Topology: mixed only when it deviates from the canonical KNL shape,
  // whose every other field is already named by the envelopes above.
  if (!canonical) topology.mix_fingerprint(h);
  return h;
}

MachineConfig MachineConfig::knl7210() { return MachineConfig{}; }

MachineConfig MachineConfig::knl7210_equal_latency() {
  MachineConfig cfg;
  cfg.fast_tier().idle_latency_ns = cfg.dram_tier().idle_latency_ns;
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
  MachineConfig cfg = declaring(sim::MemoryTopology::xeon_max());
  // Sapphire Rapids core complex: 56 performance cores, 2-way SMT, deeper
  // out-of-order windows than KNL's Silvermont-derived cores.
  cfg.timing.cores = 56;
  cfg.timing.smt_per_core = 2;
  cfg.timing.seq_mlp_per_core = 24.0;
  cfg.timing.rand_mlp_per_thread = 8.0;
  return cfg;
}

MachineConfig MachineConfig::knl_nvm() {
  return declaring(sim::MemoryTopology::knl_nvm());
}

MachineConfig MachineConfig::ddr_only() {
  MachineConfig cfg;
  // Shrink MCDRAM to a negligible sliver rather than zero so invariants and
  // topology math remain well-defined; HBM placements will simply fail.
  cfg.fast_tier().capacity_bytes = params::kPageBytes;
  return cfg;
}

}  // namespace knl
