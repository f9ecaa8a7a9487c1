// Single-pass reuse-distance profiling (Mattson's stack algorithm).
//
// The LRU inclusion property says a W-way LRU set hits an access exactly
// when fewer than W distinct lines mapping to the same set were touched
// since the access's last use — its per-set *stack distance*. One profiling
// pass over a trace therefore yields the exact hit count of *every* cache
// built on the same (line, set, sampling) geometry: hits(W) is just the
// histogram prefix sum over distances < W. This is what lets the sweep
// engine (report/sweep.hpp SweepPlanner) derive a whole capacity grid from
// one replay instead of re-simulating the trace per cell.
//
// The address decomposition mirrors CacheSim exactly — same line/set/tag
// math, same set-sampling rule (set % sample_every == 0) — staged through
// the runtime-dispatched SIMD decompose kernels (sim/simd.hpp) for
// power-of-two geometry, so hits_for_ways(W) equals CacheSim's hit counter
// bit-for-bit for any pow2 W (property-tested in tests/sim).
//
// Two internal stack representations, chosen by expected per-set occupancy:
//   - kMtf:     one flat slab holding a recency-ordered row of tags per
//               owned set (MRU first; distance = position), plus a depth
//               array. A carry-shift kernel searches and shifts the row in
//               one pass, and the pass prefetches the row of the access a
//               few positions ahead. The slab doubles its row capacity once
//               it is half full on average; until then a row deeper than
//               the capacity continues in a spill tail of its own, so
//               working memory stays O(distinct tags) under any skew. When
//               the whole trace is known up front (profile_trace), the rows
//               start as wide as the trace's tag bound if that slab is no
//               larger than the trace, and then never spill or regrow. The
//               sweep-grid case: many sets keep each row a few dozen tags.
//   - kFenwick: per-set append-only Fenwick tree counting latest-occurrence
//               marks (Bennett-Kruskal); distance = marks in (last, now].
//               O(log n) per access regardless of depth — the analyzer
//               case (few sets, fully-associative-style deep stacks).
// Both produce identical histograms (tested); kAuto picks by set count.
// The working state is allocated on the first observe() and dropped by
// seal(), after which a profile is just its answer: counters + histogram.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

namespace knl::sim {

enum class ReuseStrategy : int {
  kAuto = 0,     ///< kMtf when num_sets >= 4096, else kFenwick
  kMtf = 1,
  kFenwick = 2,
};

struct ReuseProfileConfig {
  std::uint64_t line_bytes = 64;  ///< must be a power of two
  std::uint64_t num_sets = 1;     ///< >= 1 (1 = fully associative stack)
  /// Profile only sets with index % sample_every == 0 (CacheSim's rule).
  std::uint64_t sample_every = 1;
  /// Distances >= max_depth land in the beyond-depth bucket instead of the
  /// histogram; hits_for_ways() rejects ways past this bound (the pass did
  /// not keep the information to answer them).
  std::uint64_t max_depth = 1ull << 22;
  ReuseStrategy strategy = ReuseStrategy::kAuto;
  /// Parallel-profiling shard filter: profile only sampled sets with
  /// sampled_index % shard_stride == shard_phase. Shards over disjoint
  /// phases merge() into the exact unsharded profile (distances are
  /// per-set, so set partitioning is lossless).
  std::uint64_t shard_stride = 1;
  std::uint64_t shard_phase = 0;
};

/// Per-set reuse-distance histogram accumulated over observed addresses.
class ReuseProfile {
 public:
  explicit ReuseProfile(ReuseProfileConfig config = {});

  /// Feed a block of byte addresses (chunked through the SIMD decompose
  /// kernels for pow2 geometry). Order matters; split calls concatenate.
  /// Throws std::logic_error on a sealed profile.
  void observe(const std::uint64_t* addrs, std::size_t n);
  void observe(std::span<const std::uint64_t> addrs) {
    observe(addrs.data(), addrs.size());
  }

  /// Size the kMtf rows, before the first observe(), for a trace of `n`
  /// addresses none above `max_address`. Every tag such a trace can carry is
  /// below (max_address / line_bytes) / num_sets + 1, its tag bound, so rows
  /// that wide never spill or regrow. Taken only when that slab costs no
  /// more than the trace (sampled sets x tag bound <= n: at most 8 B per
  /// address); otherwise, and on kFenwick, the rows start small and double.
  /// Sizing only: any stream may still be observed, with identical results.
  /// Throws std::logic_error once observing has begun.
  void reserve_rows(std::uint64_t max_address, std::uint64_t n);

  [[nodiscard]] const ReuseProfileConfig& config() const noexcept { return config_; }
  /// Accesses that fell in sampled (and shard-owned) sets — the denominator
  /// of every hit rate, mirroring CacheStats::accesses.
  [[nodiscard]] std::uint64_t sampled() const noexcept { return sampled_; }
  /// First touches (compulsory misses at every capacity).
  [[nodiscard]] std::uint64_t cold_misses() const noexcept { return cold_; }
  [[nodiscard]] std::uint64_t reuses() const noexcept { return sampled_ - cold_; }
  /// Reuses at distance >= max_depth (misses at every tracked capacity).
  [[nodiscard]] std::uint64_t beyond_depth() const noexcept { return beyond_; }
  /// histogram()[d] = reuses at per-set stack distance d (d < max_depth).
  [[nodiscard]] const std::vector<std::uint64_t>& histogram() const noexcept {
    return histogram_;
  }

  /// Exact hits of a `ways`-associative LRU cache on this geometry:
  /// sum of histogram below `ways`. A pure read, safe to call from many
  /// threads at once. Throws std::invalid_argument when ways > max_depth
  /// (the histogram cannot answer).
  [[nodiscard]] std::uint64_t hits_for_ways(std::uint64_t ways) const;
  /// hits_for_ways(capacity / (line_bytes * num_sets)).
  [[nodiscard]] std::uint64_t hits_for_capacity(std::uint64_t capacity_bytes) const;

  /// Fuse another shard's counters into this profile. Requires identical
  /// geometry (line/sets/sampling/depth); shard fields may differ — that is
  /// the point.
  void merge(const ReuseProfile& other);

  /// Drop the working state (recency rows, Fenwick trees, staging scratch)
  /// and keep only the answer. Every query above still answers the same;
  /// observe() throws until reset(). profile_trace() returns sealed profiles.
  void seal();
  /// Bytes of working state held now (container capacities; 0 when sealed
  /// or before the first observe()).
  [[nodiscard]] std::size_t working_bytes() const noexcept;

  /// Zero the counters and drop the working state; the profile observes
  /// afresh (sealed or not).
  void reset();

 private:
  struct FenwickSet {
    std::vector<std::uint64_t> tree;  ///< 1-indexed BIT over access times
    std::unordered_map<std::uint64_t, std::uint64_t> last;  ///< tag -> time
    std::uint64_t now = 0;
  };

  void allocate_working_state();
  void release_working_state();
  void observe_scalar(const std::uint64_t* addrs, std::size_t n);
  /// Apply the first n staged (row, tag) pairs in soa_set_/soa_tag_.
  void apply_staged(std::size_t n);
  void apply_slab(std::uint64_t row, std::uint64_t tag);
  void append_cold(std::uint64_t row, std::uint64_t tag);
  void grow_slab();
  void apply_fenwick(FenwickSet& set, std::uint64_t tag);
  void record_distance(std::uint64_t distance);

  ReuseProfileConfig config_;
  bool use_mtf_ = false;
  bool pow2_path_ = false;
  unsigned line_shift_ = 0;
  unsigned set_shift_ = 0;
  std::uint64_t set_mask_ = 0;
  unsigned sample_shift_ = 0;
  std::uint64_t sample_mask_ = 0;
  /// Sets this profile owns: the sampled sets of its shard phase, row r
  /// being sampled index r * shard_stride + shard_phase.
  std::uint64_t num_rows_ = 0;
  /// Row capacity of the first slab; 0 = kInitialRowCap (see reserve_rows).
  std::uint64_t reserved_row_cap_ = 0;
  bool sealed_ = false;

  std::uint64_t sampled_ = 0;
  std::uint64_t cold_ = 0;
  std::uint64_t beyond_ = 0;
  std::vector<std::uint64_t> histogram_;

  // kMtf working state. Row r's recency list is slab_[r * row_cap_ ...]
  // (its first min(depth_[r], row_cap_) tags) followed by spill_[r] when
  // depth_[r] > row_cap_.
  std::vector<std::uint64_t> slab_;
  std::vector<std::uint64_t> depth_;
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> spill_;
  std::uint64_t row_cap_ = 0;
  std::uint64_t distinct_ = 0;  ///< tags held across all rows

  std::vector<FenwickSet> fenwick_;  ///< kFenwick working state, per row
  /// SoA staging scratch (simd::kSoaChunk entries each): sampled set index,
  /// then row index after the shard filter, and tag. Allocated with the
  /// rest of the working state on the first observe().
  std::vector<std::uint64_t> soa_set_;
  std::vector<std::uint64_t> soa_tag_;
};

/// One profiling pass over `addrs`, sharded across `workers` pool threads by
/// sampled-set ownership (sampled_index % shards; each shard holds only its
/// own rows). Distances are per-set, so the merged result is bit-identical
/// to a serial observe() for every worker count. workers <= 1 profiles
/// inline. Each pass's rows are sized by reserve_rows() from one max over
/// `addrs`. The result is sealed: it holds the answer, no working state.
[[nodiscard]] ReuseProfile profile_trace(const std::uint64_t* addrs, std::size_t n,
                                         const ReuseProfileConfig& config,
                                         int workers = 1);

/// Hit/sampled counters of one exact per-cell replay — the reference the
/// single-pass engine is validated against (and the retained per-cell sweep
/// path). Power-of-two way counts delegate to CacheSim's batched SoA engine;
/// other way counts run a per-set bounded MTF list with the same geometry
/// and sampling rules.
struct CapacityReference {
  std::uint64_t sampled = 0;
  std::uint64_t hits = 0;
};
[[nodiscard]] CapacityReference replay_capacity_reference(
    const std::uint64_t* addrs, std::size_t n, const ReuseProfileConfig& geometry,
    std::uint64_t ways);

}  // namespace knl::sim
