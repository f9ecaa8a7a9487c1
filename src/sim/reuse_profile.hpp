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
// Three internal representations of the per-set stacks:
//   - stamp table: when the whole trace is known up front (profile_trace),
//               reserve_rows() takes the trace's tag bound and, if the table
//               costs no more slots than the trace has addresses, each owned
//               set gets a row of one uint32_t stamp per possible tag (padded
//               to a multiple of 8): the 1-based index of that tag's last
//               access in this profile, 0 = never. An access's stack
//               distance is the number of row slots stamped later than its
//               own last access (a fixed-width count the compiler
//               vectorizes at -O3); nothing moves, and the row of the access a few
//               positions ahead is prefetched. The sweep-grid case: many
//               sets over a footprint the trace covers densely.
//   - kMtf slab: one flat slab holding a recency-ordered row of tags per
//               owned set (MRU first; distance = position), plus a depth
//               array. A carry-shift kernel searches and shifts the row in
//               one pass, with the same prefetch. The slab doubles its row
//               capacity once it is half full on average; until then a row
//               deeper than the capacity continues in a spill tail of its
//               own, so working memory stays O(distinct tags) under any
//               skew. The sparse case: a footprint far larger than the
//               trace, where a table of every possible tag would not pay.
//   - kFenwick: per-set append-only Fenwick tree counting latest-occurrence
//               marks (Bennett-Kruskal); distance = marks in (last, now].
//               O(log n) per access regardless of depth — the analyzer
//               case (few sets, fully-associative-style deep stacks).
// All three produce identical histograms (tested); kAuto picks kMtf (the
// table when reserve_rows() takes it, else the slab) or kFenwick by set
// count. The working state is allocated on the first observe() and dropped
// by seal(), after which a profile is just its answer: counters + histogram.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

namespace knl::sim {

enum class ReuseStrategy : int {
  kAuto = 0,     ///< kMtf when num_sets >= 4096, else kFenwick
  kMtf = 1,      ///< the stamp table when reserve_rows() takes it, else the slab
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
  /// Throws std::logic_error on a sealed profile, or on a block past what
  /// reserve_rows() committed to.
  void observe(const std::uint64_t* addrs, std::size_t n);
  void observe(std::span<const std::uint64_t> addrs) {
    observe(addrs.data(), addrs.size());
  }

  /// Commit the profile, before the first observe(), to a stream of at most
  /// `n` addresses none above `max_address`, and on kMtf take the stamp
  /// table for it when that pays. Every tag such a stream can carry is below
  /// (max_address / line_bytes) / num_sets + 1, its tag bound; the table is
  /// taken when sampled sets x tag bound <= n < 2^32 (one 4-byte slot per
  /// address at most, plus each row's padding to 8 slots). Otherwise, and on
  /// kFenwick, the pass keeps its growing slab or trees. Either way the
  /// histograms are identical, and from then on observe() throws
  /// std::logic_error for a block that would take the stream past `n`
  /// addresses (before counting any of it) or that holds an address above
  /// `max_address` (its chunks before that address may have been counted;
  /// reset() the profile to reuse it). Throws std::logic_error once
  /// observing has begun.
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
  /// Decompose a block of at most simd::kSoaChunk addresses into the
  /// (row, tag) pairs of this profile's sets in soa_set_/soa_tag_; returns
  /// how many were kept.
  std::size_t stage_pow2(const std::uint64_t* addrs, std::size_t n);
  std::size_t stage_scalar(const std::uint64_t* addrs, std::size_t n);
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
  /// What reserve_rows() committed observe() to: at most `left` more
  /// addresses, none above `max_address`.
  struct Commitment {
    std::uint64_t max_address = 0;
    std::uint64_t left = 0;
  };
  std::optional<Commitment> commitment_;
  bool sealed_ = false;

  std::uint64_t sampled_ = 0;
  std::uint64_t cold_ = 0;
  std::uint64_t beyond_ = 0;
  std::vector<std::uint64_t> histogram_;

  // Stamp table working state (stamp_width_ != 0): row r's slots are
  // stamps_[r * stamp_width_ ...], slot t holding the stamp of tag t's last
  // access; the k-th access applied to the table is stamped k.
  std::vector<std::uint32_t> stamps_;
  std::uint64_t stamp_width_ = 0;
  std::uint32_t stamped_ = 0;  ///< accesses applied to the table so far

  // kMtf slab working state. Row r's recency list is slab_[r * row_cap_ ...]
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
/// inline. Each pass is committed by reserve_rows() to `addrs` (one max over
/// it), so it takes the stamp table where that pays. The result is sealed: it holds the answer, no working state.
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
