// Exact set-associative cache simulator with optional set sampling.
//
// Used two ways:
//   - exact mode for the L1/L2 hierarchy at test scale, validating the
//     analytic hit-rate expressions in CacheHierarchy;
//   - sampled mode for the MCDRAM direct-mapped memory-side cache, whose
//     full tag store (16 GiB / 64 B lines) is too large to hold — only sets
//     whose index falls in a deterministic sample are simulated, which is
//     unbiased for the address streams we replay (sequential sweeps and
//     uniform-random).  See docs/ARCHITECTURE.md ("Set sampling and its
//     error bound") for the SMARTS-style error analysis.
//
// Storage is flat: set-indexed tag/tick arrays carved into lazily-allocated
// slabs, so a 16 GiB direct-mapped tag store costs memory proportional to
// the sets actually touched while every access is array indexing — no
// hashing, no per-set allocation.  `line_bytes` and `ways` are required to
// be powers of two so the index math is shifts and masks.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace knl::sim {

struct CacheConfig {
  std::uint64_t capacity_bytes = 0;
  std::uint64_t line_bytes = 64;  ///< must be a power of two
  int ways = 1;                   ///< 1 = direct-mapped; must be a power of two
  /// Simulate only every `sample_every`-th set (1 = exact).
  std::uint64_t sample_every = 1;

  [[nodiscard]] std::uint64_t num_sets() const {
    return capacity_bytes / (line_bytes * static_cast<std::uint64_t>(ways));
  }
};

struct CacheStats {
  std::uint64_t accesses = 0;  ///< Accesses that fell in sampled sets.
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;

  [[nodiscard]] double hit_rate() const {
    return accesses == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(accesses);
  }
};

/// Result of one batched access_block() call (counts sampled sets only).
struct BlockStats {
  std::uint64_t sampled = 0;  ///< accesses that fell in sampled sets
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

/// LRU set-associative cache over 64-bit byte addresses.
class CacheSim {
 public:
  explicit CacheSim(CacheConfig config);

  /// Access one byte address; returns true on hit. Accesses mapping to
  /// non-sampled sets return true without being recorded (they do not
  /// perturb the stats).
  bool access(std::uint64_t addr) {
    const std::uint64_t line = addr >> line_shift_;
    const std::uint64_t set_idx = set_of(line);
    if (config_.sample_every != 1 && set_idx % config_.sample_every != 0) {
      return true;  // not sampled
    }
    return access_sampled(line, set_idx);
  }

  /// Replay a whole block of addresses; returns the block's own hit/miss
  /// counts (cumulative stats() are updated as well). This is the batched
  /// hot path: for power-of-two geometry the block is staged through SoA
  /// set/tag arrays filled by the runtime-dispatched SIMD decompose kernels
  /// (sim/simd.hpp), then applied by a stateful LRU pass dispatched once per
  /// block on the compile-time way count, so the inner loop is fully
  /// unrolled. Bit-identical to calling access() per address.
  BlockStats access_block(std::span<const std::uint64_t> addrs);

  /// Batched access that additionally records the per-address outcome:
  /// hit_out[i] = 1 when addrs[i] hit (non-sampled sets report 1, exactly
  /// like access()), so a caller can chain L1 -> L2 over the misses
  /// without falling back to per-address calls.
  BlockStats access_block_flags(const std::uint64_t* addrs, std::size_t n,
                                std::uint8_t* hit_out);

  /// Touch every line of [addr, addr+bytes); returns number of line misses
  /// among sampled sets.
  std::uint64_t access_range(std::uint64_t addr, std::uint64_t bytes);

  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const CacheConfig& config() const noexcept { return config_; }
  /// Lines currently resident (in sampled sets).
  [[nodiscard]] std::uint64_t resident_lines() const noexcept { return resident_; }

  void reset_stats() noexcept { stats_ = {}; }
  void flush();

 private:
  /// Sampled sets per lazily-allocated storage slab: one slab of a
  /// direct-mapped cache is 32 Ki sets x 16 B = 512 KiB, small enough that
  /// sparse replays stay cheap and large enough that dense replays touch
  /// one allocation per ~2 GiB of cached footprint.
  static constexpr std::uint64_t kSlabSetShift = 15;
  static constexpr std::uint64_t kSlabSets = 1ull << kSlabSetShift;

  struct Slab {
    // Parallel arrays indexed by (set-within-slab * ways + way).
    // tick == 0 marks an invalid way (global tick starts at 1).
    std::vector<std::uint64_t> tag;
    std::vector<std::uint64_t> tick;
  };

  [[nodiscard]] std::uint64_t set_of(std::uint64_t line) const {
    return sets_pow2_ ? (line & set_mask_) : (line % num_sets_);
  }
  [[nodiscard]] std::uint64_t tag_of(std::uint64_t line) const {
    return sets_pow2_ ? (line >> set_shift_) : (line / num_sets_);
  }

  /// Slab memoization cursor threaded through one batched call: sweeps and
  /// chases revisit the same slab for long runs, so the pointer pair is
  /// resolved once per slab change, not per address.
  struct SlabCursor {
    std::uint64_t idx = ~0ull;
    std::uint64_t* tags = nullptr;
    std::uint64_t* ticks = nullptr;
  };

  Slab& slab_for(std::uint64_t sampled_idx);
  bool access_sampled(std::uint64_t line, std::uint64_t set_idx);

  /// SoA pipeline for power-of-two geometry: decompose `addrs` into the
  /// scratch set/tag arrays (SIMD-dispatched), then run the stateful LRU
  /// apply pass. kFlags additionally writes per-address hit bytes.
  template <int kWays, bool kFlags>
  BlockStats access_block_soa(const std::uint64_t* addrs, std::size_t n,
                              std::uint8_t* hit_out);
  /// Stateful LRU pass over precomputed (sampled set, tag) pairs; the per-way
  /// scan unrolls at compile time. Accumulates into the caller's counters.
  template <int kWays, bool kFlags>
  void apply_block_pow2(const std::uint64_t* sets, const std::uint64_t* tags,
                        std::size_t n, std::uint8_t* hit_out, BlockStats& block,
                        std::uint64_t& evictions, std::uint64_t& filled,
                        SlabCursor& cursor);

  /// Scalar fallback for non-power-of-two set counts or sampling strides
  /// (division/modulo index math, otherwise the same one-pass LRU scan).
  template <int kWays>
  BlockStats access_block_scalar(std::span<const std::uint64_t> addrs);
  BlockStats access_block_generic(std::span<const std::uint64_t> addrs);

  void ensure_soa_scratch();

  CacheConfig config_;
  std::uint64_t num_sets_ = 0;
  std::uint64_t num_sampled_sets_ = 0;
  unsigned line_shift_ = 0;
  bool sets_pow2_ = false;
  unsigned set_shift_ = 0;
  std::uint64_t set_mask_ = 0;
  std::uint64_t tick_ = 0;
  std::uint64_t resident_ = 0;
  CacheStats stats_;
  // Lazily materialized flat storage: slabs_[sampled_idx >> kSlabSetShift].
  std::vector<std::unique_ptr<Slab>> slabs_;
  // SoA staging arrays (simd::kSoaChunk entries each), lazily allocated by
  // the first block access.
  std::vector<std::uint64_t> soa_set_;
  std::vector<std::uint64_t> soa_tag_;
};

}  // namespace knl::sim
