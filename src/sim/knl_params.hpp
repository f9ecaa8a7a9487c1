// Calibrated machine parameters for the simulated KNL 7210 node.
//
// Every constant here is anchored either to a number the paper states
// directly (§II, §III-A, §IV-A) or to a value back-derived from the paper's
// measured curves.  The calibration anchors are asserted by
// tests/sim/timing_model_test.cpp so any drift is caught by ctest.
//
// Anchors from the paper:
//   - DDR:    96 GB, ~90 GB/s peak, STREAM triad measures 77 GB/s,
//             130.4 ns idle latency.
//   - MCDRAM: 16 GB, ~400+ GB/s peak, STREAM triad measures 330 GB/s with
//             1 HT/core and up to ~420-450 GB/s with >=2 HT/core,
//             154.0 ns idle latency (~18% above DDR).
//   - Cache mode STREAM: 260 GB/s @ 8 GB, 125 GB/s @ 11.4 GB,
//             below DDR beyond ~24 GB.
//   - Core:   64 cores @ 1.3 GHz, 4 hardware threads/core, 32 KB L1/core,
//             1 MB L2 per 2-core tile (32 tiles -> 32 MB aggregate L2).
#pragma once

#include <array>
#include <cstdint>

#include "core/types.hpp"

namespace knl::params {

// ---------------------------------------------------------------------------
// Topology (paper §II / §III-A, KNL model 7210).
// ---------------------------------------------------------------------------
inline constexpr int kCores = 64;
inline constexpr int kSmtPerCore = 4;
inline constexpr int kCoresPerTile = 2;
inline constexpr int kTiles = kCores / kCoresPerTile;  // 32 active tiles
inline constexpr double kClockGHz = 1.3;

// ---------------------------------------------------------------------------
// Cache hierarchy.
// ---------------------------------------------------------------------------
inline constexpr std::uint64_t kLineBytes = 64;
inline constexpr std::uint64_t kL1Bytes = 32 * KiB;  // per core, 8-way
inline constexpr int kL1Ways = 8;
inline constexpr std::uint64_t kL2Bytes = 1 * MiB;  // per tile, 16-way
inline constexpr int kL2Ways = 16;

// Latency tiers measured by the dual-random-read probe (paper Fig. 3):
// ~10 ns within the local L2, ~200 ns loaded latency out to memory.
inline constexpr double kL1LatencyNs = 2.3;    // ~3 cycles @1.3GHz
inline constexpr double kL2LatencyNs = 10.0;   // paper Fig. 3 tier 1

// ---------------------------------------------------------------------------
// Memory nodes (idle = unloaded round-trip latency; the Fig. 3 probe measures
// a *loaded* figure that also includes directory/mesh and paging effects,
// which the TimingModel adds on top).
// ---------------------------------------------------------------------------
struct NodeParams {
  std::uint64_t capacity_bytes;
  double peak_bw_gbs;        // data-sheet peak
  double stream_bw_gbs;      // attainable streaming bandwidth (STREAM cap)
  double random_bw_gbs;      // attainable bandwidth under random line access
  double idle_latency_ns;    // paper §IV-A

  friend constexpr bool operator==(const NodeParams&, const NodeParams&) = default;
};

inline constexpr NodeParams kDdr{
    .capacity_bytes = 96 * GiB,
    .peak_bw_gbs = 90.0,
    .stream_bw_gbs = 77.0,   // paper Fig. 2 plateau
    .random_bw_gbs = 40.0,   // line-granular random: page-miss bound, 6 chan
    .idle_latency_ns = 130.4,
};

inline constexpr NodeParams kHbm{
    .capacity_bytes = 16 * GiB,
    .peak_bw_gbs = 450.0,    // paper: "as high as 420 GB/s" with HT, headroom
    .stream_bw_gbs = 455.0,  // asymptotic STREAM cap at 4 HT (Fig. 5)
    .random_bw_gbs = 240.0,  // 8 MCDRAM devices, high bank parallelism
    .idle_latency_ns = 154.0,
};

// ---------------------------------------------------------------------------
// Memory-level parallelism model (the heart of the Little's-law timing).
//
// Regular/streaming phases: the L2 hardware prefetcher keeps a per-core
// complement of outstanding line fills; SMT adds a modest boost because two
// threads cover prefetch-train startup gaps.  Calibrated so that
//   HBM stream @1HT: 64 cores * 12.4 lines * 64 B / 154 ns = 330 GB/s,
//   HBM stream @2HT: *1.27 = 419 GB/s (paper Fig. 5),
//   DDR stream: demand >> 90 GB/s at any HT => capped at 77 GB/s always.
// ---------------------------------------------------------------------------
inline constexpr double kSeqMlpPerCore = 12.4;  // outstanding lines, 1 HT
/// Multiplier on per-core streaming MLP for 1..4 hardware threads per core.
inline constexpr std::array<double, 4> kSeqSmtScale{1.00, 1.27, 1.35, 1.40};

// Random (no-prefetch) phases: bounded by per-thread out-of-order window /
// fill buffers.  A thread of a pointer-dereferencing loop sustains only a
// couple of outstanding misses; four SMT threads multiply the per-core total.
inline constexpr double kRandMlpPerThread = 2.0;
/// SMT efficiency for random access: sub-linear (shared fill buffers and
/// OoO resources per core), calibrated to the Fig. 6c/6d thread sweeps.
inline constexpr std::array<double, 4> kRandSmtScale{1.00, 0.90, 0.80, 0.70};

// ---------------------------------------------------------------------------
// TLB / paging model.  Drives the latency rise beyond 128 MB in Fig. 3.
// The testbed runs with 2 MiB huge pages (Cray default for HPC jobs);
// 128 L2-TLB entries cover 256 MiB.
// ---------------------------------------------------------------------------
inline constexpr std::uint64_t kPageBytes = 2 * MiB;
/// 64 L2-TLB entries for 2 MiB pages -> 128 MiB coverage: the paper's Fig. 3
/// latency rise "starting from 128 MB".
inline constexpr int kTlbEntries = 64;
/// Cost of a page walk whose entries hit in the L2 cache.
inline constexpr double kPageWalkCachedNs = 25.0;
/// Cost of a page walk that must fetch entries from memory (large
/// footprints); scaled by the bound node's latency in the timing model
/// because the page tables live in the bound node too.
inline constexpr double kPageWalkMemoryNs = 350.0;
/// Footprint at which walk entries themselves stop fitting in cache.
inline constexpr std::uint64_t kWalkThrashBytes = 512 * MiB;

// ---------------------------------------------------------------------------
// MCDRAM cache mode (direct-mapped memory-side cache, paper §II + Fig. 2).
// ---------------------------------------------------------------------------
/// Tag check is itself an MCDRAM access (memory-side cache): a miss has
/// spent most of an MCDRAM trip before the DDR access even starts.
inline constexpr double kMcdramTagLatencyNs = 60.0;
/// Extra per-byte miss-path cost (fill write + replacement traffic),
/// expressed as seconds per decimal GB (i.e. 0.004 s/GB == 4 ns/KB).
inline constexpr double kMcdramMissOverheadSPerGB = 0.0040;
/// Sweep-reuse hit-rate model 1/(1+(rho/kSweepKnee)^kSweepSharpness) with
/// rho = footprint/capacity. Solved from the paper's cache-mode STREAM
/// anchors: 260 GB/s @ 8 GB (h=0.89), 125 GB/s @ 11.4 GB (h=0.61),
/// below-DRAM @ 22.8 GB (h=0.06).
inline constexpr double kSweepKnee = 0.78;
inline constexpr double kSweepSharpness = 4.63;

// ---------------------------------------------------------------------------
// Compute model (only DGEMM approaches it).  KNL 7210: 2x AVX-512 FMA units,
// but with 1 thread/core the back-to-back FMA latency cannot be hidden, so
// attainable peak grows with SMT (paper Fig. 6a: 1.7x from 64->192 threads).
// ---------------------------------------------------------------------------
inline constexpr std::array<double, 4> kComputeSmtScale{0.50, 0.78, 0.88, 0.92};

/// Attainable DP GFLOPS for `ht` hardware threads/core (all 64 cores busy).
[[nodiscard]] constexpr double attainable_gflops(int ht) {
  // 32 DP flops per cycle: 2 FMA units * 8 DP lanes * 2.
  const double peak = kCores * kClockGHz * 32.0;
  return peak * kComputeSmtScale[static_cast<std::size_t>(ht - 1)];
}

// NUMA distances reported by `numactl --hardware` on the testbed (Table II).
inline constexpr int kNumaDistanceLocal = 10;
inline constexpr int kNumaDistanceRemote = 31;

}  // namespace knl::params
