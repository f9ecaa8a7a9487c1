// Shared statistics vocabulary of the discrete replay engines.
//
// TraceMachine (single core) and ParallelReplay (lock-step multi-core) count
// the same events; ReplayCounters holds those counters once.
#pragma once

#include <cstdint>

#include "sim/knl_params.hpp"

namespace knl::sim {

/// Event counters shared by every replay engine.
struct ReplayCounters {
  std::uint64_t accesses = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t memory_accesses = 0;
  std::uint64_t tlb_misses = 0;
  std::uint64_t mcdram_hits = 0;
};

/// Counters plus the simulated wall time of the replayed stream.
struct ReplayStats : ReplayCounters {
  double seconds = 0.0;

  [[nodiscard]] double avg_access_ns() const {
    return accesses == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(accesses);
  }
  [[nodiscard]] double memory_bandwidth_gbs() const {
    return seconds == 0.0 ? 0.0
                          : static_cast<double>(memory_accesses) *
                                static_cast<double>(params::kLineBytes) /
                                (seconds * 1e9);
  }
};

/// Multi-core replay additionally tracks time spent with the shared
/// bandwidth budget saturated.
struct ParallelReplayStats : ReplayStats {
  /// Wall time spent with the bandwidth budget saturated.
  double capped_seconds = 0.0;
};

}  // namespace knl::sim
