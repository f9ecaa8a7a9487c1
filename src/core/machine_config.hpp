// Aggregate configuration of the simulated node.
#pragma once

#include <cstdint>

#include <string>

#include "sim/knl_params.hpp"
#include "sim/timing_model.hpp"
#include "sim/topology.hpp"

namespace knl {

/// Version of the machine-profile schema: the set of calibrated fields a
/// MachineConfig carries and the order fingerprint() mixes them in. Bump it
/// whenever a field is added, removed, or re-interpreted — the version is
/// part of the fingerprint, so every cached sweep result and persisted
/// cache file keyed on the old schema misses instead of silently serving a
/// stale answer for a profile whose raw bytes happen to collide.
inline constexpr int kMachineSchemaVersion = 2;

/// Everything needed to instantiate a simulated KNL-class node. Defaults
/// reproduce the paper's testbed (KNL 7210, 96 GB DDR4 + 16 GB MCDRAM,
/// quadrant cluster mode).
struct MachineConfig {
  /// Schema version fingerprinted ahead of every parameter (see
  /// kMachineSchemaVersion). A field, not a constant, so tests can prove
  /// the invalidation path without editing the header.
  int schema_version = kMachineSchemaVersion;

  sim::TimingConfig timing = {};

  /// The memory hierarchy: the one description of the memory tiers, read
  /// by placement, timing, reports and the fingerprint alike. Defaults to
  /// the paper testbed (16 GiB MCDRAM, cache-capable, over 96 GiB DDR4);
  /// machine files, xeon_max() and knl_nvm() declare others.
  sim::MemoryTopology topology = sim::MemoryTopology::knl7210();

  /// Envelope of the fast tier (MemoryTopology::fast_tier: MCDRAM on KNL)
  /// and of the DRAM tier (MemoryTopology::dram_tier: DDR4 on KNL) — the
  /// tiers presets, perturbations and reports name "HBM" and "DDR".
  [[nodiscard]] params::NodeParams& fast_tier();
  [[nodiscard]] const params::NodeParams& fast_tier() const;
  [[nodiscard]] params::NodeParams& dram_tier();
  [[nodiscard]] const params::NodeParams& dram_tier() const;

  /// Sanity-check invariants: the topology validates (knl::Error
  /// CorruptInput with a `topology/...` slug, e.g. `topology/bad-envelope`)
  /// and the MCDRAM cache has a size (std::invalid_argument).
  void validate() const;

  /// Content hash (FNV-1a) of every calibrated parameter. Two configs with
  /// equal fingerprints produce bit-identical simulation results, so the
  /// sweep memoization cache (report/sweep.hpp) keys on this — entries never
  /// leak between, say, knl7210() and knl7210_equal_latency() machines.
  ///
  /// The byte stream is frozen: it still mixes a block for the page-level
  /// placement view machines no longer carry (see the .cpp), so the
  /// fingerprints embedded in goldens and persisted caches stay valid.
  /// Pinned by tests/core/fingerprint_pin_test.cpp.
  ///
  /// The topology itself is mixed in only when it differs from the
  /// canonical two-tier KNL shape built from its own fast and DRAM
  /// envelopes (which are always mixed): that shape adds no information
  /// beyond those envelopes, so the mapping stays injective and the
  /// historical KNL fingerprint — embedded in every golden artifact — is
  /// preserved, while any real topology change (extra tier, renamed tier,
  /// moved controller range, cache_front toggle) changes the fingerprint.
  /// Asserted by tests/core/fingerprint_topology_test.cpp.
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// Build a config from a machine file (sim::MemoryTopology machine-file
  /// format): parses and validates the topology and declares it on the KNL
  /// base (a cache-capable fast tier also sizes the MCDRAM cache; core
  /// counts and cache hierarchy stay at testbed defaults unless the caller
  /// adjusts them afterwards).
  [[nodiscard]] static MachineConfig from_machine_file(const std::string& text);

  /// The paper's testbed configuration.
  [[nodiscard]] static MachineConfig knl7210();

  /// Xeon Max / Sapphire Rapids HBM node (Aurora-class): 64 GiB HBM2e over
  /// 512 GiB DDR5, 56 cores with 2-way SMT.
  [[nodiscard]] static MachineConfig xeon_max();

  /// The KNL testbed plus a 512 GiB NVM-class far tier behind DDR (the
  /// NUMA-emulation paper's spill path): a three-tier topology.
  [[nodiscard]] static MachineConfig knl_nvm();

  /// A machine with MCDRAM-like latency *equal* to DDR — the ablation
  /// machine for asking "how much of the random-access penalty is latency?"
  [[nodiscard]] static MachineConfig knl7210_equal_latency();

  /// A DDR-only machine (no MCDRAM): the conventional-node baseline.
  [[nodiscard]] static MachineConfig ddr_only();

  /// SNC-4 cluster mode: sub-NUMA clustering shortens the directory walk
  /// (traffic stays within a quadrant) at the cost of exposing 8 NUMA
  /// nodes to software. Not used by the paper's testbed (quadrant mode);
  /// provided for what-if studies.
  [[nodiscard]] static MachineConfig knl7210_snc4();
};

}  // namespace knl
