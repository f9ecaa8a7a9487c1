// Declared memory topology: the machine's memory hierarchy as *data*.
//
// Until this module existed, the machine model hard-wired exactly two
// memory nodes (MCDRAM + DDR, the paper's KNL testbed). A MemoryTopology
// instead *declares* N tiers — each with a name, a device kind, the
// calibrated bandwidth/latency/capacity envelope, a contiguous controller
// range (the zsim-ndp `typeRanges` shape: controllers are numbered 0..C-1
// and each tier owns a disjoint contiguous slice), an optional
// backing-store edge (where this tier's overflow spills), and an optional
// cache-front flag (the tier can serve as a hardware-managed cache for its
// backing tier, like MCDRAM in the paper's cache mode).
//
// Topologies round-trip through a line-oriented *machine file* format
// (parse_machine_file / to_machine_file), so new machines are shipped as
// data under machines/ rather than as code. Validation failures are
// knl::Error CorruptInput with stable `topology/...` slugs.
//
// Three profiles ship with the repository (see docs/MACHINES.md):
//   knl7210  — the paper's testbed: 16 GiB MCDRAM over 96 GiB DDR4.
//   xeonmax  — a Xeon Max / Sapphire Rapids HBM node: 64 GiB HBM2e over
//              DDR5 (Aurora paper parameters).
//   knl_nvm  — the KNL testbed with a third NVM-class tier behind DDR
//              (the NUMA-emulation paper's spill path).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/knl_params.hpp"

namespace knl::sim {

/// Device class of one tier. Decides nothing by itself — the performance
/// envelope lives in NodeParams — but names the technology for reports,
/// placement heuristics and machine files.
enum class TierKind : std::uint8_t {
  HBM,   ///< on-package high-bandwidth memory (MCDRAM, HBM2e)
  DRAM,  ///< conventional DDR channels
  NVM,   ///< non-volatile / far memory (Optane-class, emulated NUMA far node)
};

[[nodiscard]] std::string to_string(TierKind kind);

/// One declared memory tier.
struct MemoryTier {
  std::string name;                ///< unique, e.g. "MCDRAM", "DDR4", "NVM"
  TierKind kind = TierKind::DRAM;
  params::NodeParams params{};     ///< capacity + bandwidth/latency envelope
  /// Contiguous controller slice [controllers_begin, controllers_end) this
  /// tier owns — the zsim-ndp typeRanges shape. Slices of different tiers
  /// must not overlap.
  int controllers_begin = 0;
  int controllers_end = 0;
  /// Index of the tier absorbing this tier's capacity overflow (the spill /
  /// demotion target); -1 = terminal, overflow is infeasible.
  int backing = -1;
  /// True when the tier can front its backing tier as a hardware-managed
  /// (direct-mapped, memory-side) cache — MCDRAM cache mode.
  bool cache_front = false;

  [[nodiscard]] int controllers() const noexcept {
    return controllers_end - controllers_begin;
  }

  friend bool operator==(const MemoryTier&, const MemoryTier&) = default;
};

/// Byte share one tier holds after waterfall placement.
struct TierShare {
  int tier = 0;
  std::uint64_t bytes = 0;

  friend bool operator==(const TierShare&, const TierShare&) = default;
};

/// Result of placing a resident set across the declared tiers.
struct TierPlacement {
  bool ok = false;
  std::string error;               ///< infeasibility reason when !ok
  std::vector<TierShare> shares;   ///< waterfall order, preferred tier first

  /// Fraction of the placed bytes resident in `tier` (0 when !ok or empty).
  [[nodiscard]] double fraction_in(int tier) const;
  [[nodiscard]] std::uint64_t total_bytes() const;
};

class MemoryTopology {
 public:
  std::string name = "knl7210";   ///< machine-file identity
  std::vector<MemoryTier> tiers;  ///< fast-to-slow by convention

  /// Check every structural invariant; throws knl::Error CorruptInput with
  /// a stable slug on the first violation:
  ///   topology/empty              no tiers declared
  ///   topology/duplicate-name     two tiers share a name
  ///   topology/zero-capacity      a tier has no capacity
  ///   topology/bad-envelope       non-positive bandwidth or latency
  ///   topology/bad-range          empty or negative controller slice
  ///   topology/overlapping-ranges two controller slices intersect
  ///   topology/bad-backing        backing index out of range / self
  ///   topology/backing-cycle      backing edges form a cycle
  ///   topology/bad-cache-front    cache_front tier has no backing tier
  void validate() const;

  [[nodiscard]] std::size_t tier_count() const noexcept { return tiers.size(); }
  [[nodiscard]] const MemoryTier& tier(std::size_t i) const { return tiers.at(i); }

  /// Index of the tier named `name`; -1 when absent.
  [[nodiscard]] int find_tier(const std::string& tier_name) const;

  /// The fastest tier: highest stream bandwidth (HBM on every shipped
  /// profile). Requires a validated, non-empty topology.
  [[nodiscard]] int fast_tier() const;

  /// The terminal conventional-DRAM tier: the DRAM-kind tier that numactl's
  /// membind=0 would target. Falls back to the highest-capacity tier when
  /// no DRAM-kind tier exists.
  [[nodiscard]] int dram_tier() const;

  /// Tier indices along the backing chain starting at (and including)
  /// `from` — the waterfall spill order.
  [[nodiscard]] std::vector<int> spill_chain(int from) const;

  /// The tier fronting `backing_tier` as a hardware cache; -1 when none.
  [[nodiscard]] int cache_front_of(int backing_tier) const;

  /// Comma-joined tier names, fast first ("MCDRAM,DDR4,NVM") — the compact
  /// spelling /stats and reports use.
  [[nodiscard]] std::string tier_names() const;

  /// Mix every declared field into an FNV-1a fingerprint accumulator (the
  /// MachineConfig::fingerprint building block).
  void mix_fingerprint(std::uint64_t& h) const;

  friend bool operator==(const MemoryTopology&, const MemoryTopology&) = default;

  // -- machine-file round trip ---------------------------------------------

  /// Serialize to the machine-file format (parse_machine_file inverts this
  /// exactly; round-trip asserted by tests/sim/topology_test.cpp).
  [[nodiscard]] std::string to_machine_file() const;

  /// Parse a machine file. Throws knl::Error CorruptInput with slug
  /// `topology/parse` (syntax), `topology/unknown-kind` (bad tier kind),
  /// `topology/unknown-field`, or any validate() slug — the parsed topology
  /// is always validated before being returned.
  [[nodiscard]] static MemoryTopology parse_machine_file(const std::string& text);

  // -- shipped profiles ----------------------------------------------------

  /// The paper testbed: 16 GiB MCDRAM (cache-capable) over 96 GiB DDR4.
  [[nodiscard]] static MemoryTopology knl7210();

  /// Xeon Max / Sapphire Rapids HBM node (Aurora paper): 64 GiB HBM2e
  /// (cache-capable) over 512 GiB DDR5.
  [[nodiscard]] static MemoryTopology xeon_max();

  /// KNL testbed plus a 512 GiB NVM-class far tier behind DDR (the
  /// NUMA-emulation paper's RAM -> far-memory spill path).
  [[nodiscard]] static MemoryTopology knl_nvm();
};

/// Waterfall placement: fill `preferred` to capacity, spill the remainder
/// down its backing chain. `strict` forbids spilling (numactl membind
/// semantics: infeasible unless the preferred tier holds everything).
[[nodiscard]] TierPlacement place_waterfall(const MemoryTopology& topology,
                                            std::uint64_t bytes, int preferred,
                                            bool strict = false);

}  // namespace knl::sim
