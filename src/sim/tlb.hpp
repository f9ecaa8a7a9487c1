// TLB and page-walk model.
//
// The latency rise beyond ~128 MB in the paper's Fig. 3 is a paging effect:
// once the randomly-touched footprint exceeds L2-TLB coverage, every access
// pays a page walk, and once the page-table working set itself falls out of
// cache the walk hits memory.  This module provides both an analytic
// expectation (used by the timing model at paper scale) and an exact LRU TLB
// simulator (used by tests to validate the analytic form).
//
// TlbSim stores its entries in flat slot arrays threaded by an intrusive
// hash index and an intrusive LRU list — O(1) per access with no allocation
// after construction, far cheaper than the node-based list+hash LRU it
// replaces, and an MRU front-check makes page-local streams (sweeps,
// chases) nearly free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/knl_params.hpp"

namespace knl::sim {

struct TlbConfig {
  std::uint64_t page_bytes = params::kPageBytes;
  int entries = params::kTlbEntries;
  double walk_cached_ns = params::kPageWalkCachedNs;
  double walk_memory_ns = params::kPageWalkMemoryNs;
  std::uint64_t walk_thrash_bytes = params::kWalkThrashBytes;

  [[nodiscard]] std::uint64_t coverage_bytes() const {
    return page_bytes * static_cast<std::uint64_t>(entries);
  }
};

/// Analytic expected TLB penalty per access for a uniform-random access
/// stream over `footprint` bytes.
class TlbModel {
 public:
  explicit TlbModel(TlbConfig config = {}) : config_(config) {}

  [[nodiscard]] const TlbConfig& config() const noexcept { return config_; }

  /// Probability a random access misses the TLB under LRU with a uniform
  /// stream: pages beyond coverage cannot be cached, so
  /// P(miss) = max(0, 1 - coverage/footprint).
  [[nodiscard]] double miss_probability(std::uint64_t footprint_bytes) const;

  /// Cost of one page walk for the given footprint: walks over small tables
  /// hit the cache hierarchy; very large footprints push the page-table
  /// working set to memory (smooth blend between the two costs).
  [[nodiscard]] double walk_cost_ns(std::uint64_t footprint_bytes) const;

  /// Expected paging penalty added to each random access.
  [[nodiscard]] double expected_penalty_ns(std::uint64_t footprint_bytes) const;

 private:
  TlbConfig config_;
};

/// Exact LRU TLB used by tests to validate TlbModel::miss_probability.
///
/// Layout: a flat intrusive structure over fixed slot arrays — an
/// open-hashed page index (bucket chains threaded through bucket_next_)
/// plus a doubly-linked LRU order threaded through lru_prev_/lru_next_.
/// Every operation is O(1) with no allocation after construction, which is
/// what the batched replay hot loop needs.
class TlbSim {
 public:
  explicit TlbSim(TlbConfig config = {});

  /// Translate one address; returns true on TLB hit.
  bool access(std::uint64_t addr) {
    ++accesses_;
    const std::uint64_t page = page_pow2_ ? (addr >> page_shift_) : (addr / config_.page_bytes);
    // MRU front-check: page-local streams hit here without probing.
    if (head_ >= 0 && pages_[static_cast<std::size_t>(head_)] == page) return true;
    return access_slow(page);
  }

  /// Batched translate: hit_out[i] = 1 when addrs[i] hit. Bit-identical to
  /// calling access() per address, but the page-number extraction is staged
  /// through a SoA scratch array filled by the SIMD dispatch (sim/simd.hpp),
  /// so the stateful LRU walk runs over a contiguous page stream.
  void access_block(const std::uint64_t* addrs, std::size_t n, std::uint8_t* hit_out);

  [[nodiscard]] std::uint64_t accesses() const noexcept { return accesses_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] double miss_rate() const noexcept {
    return accesses_ == 0 ? 0.0
                          : static_cast<double>(misses_) / static_cast<double>(accesses_);
  }

 private:
  [[nodiscard]] std::size_t bucket_of(std::uint64_t page) const noexcept {
    // Fibonacci multiply-shift: sequential pages land in distinct buckets.
    return static_cast<std::size_t>((page * 0x9E3779B97F4A7C15ull) >> bucket_shift_);
  }
  bool access_slow(std::uint64_t page);
  void move_to_front(std::int32_t slot);

  TlbConfig config_;
  bool page_pow2_ = false;
  unsigned page_shift_ = 0;
  unsigned bucket_shift_ = 0;
  std::uint64_t accesses_ = 0;
  std::uint64_t misses_ = 0;
  std::int32_t head_ = -1;    // most recently used slot
  std::int32_t tail_ = -1;    // least recently used slot
  std::int32_t filled_ = 0;   // slots in use (fill before evicting)
  std::vector<std::uint64_t> pages_;
  /// SoA page-number scratch for access_block, lazily allocated by the
  /// first block access.
  std::vector<std::uint64_t> soa_pages_;
  std::vector<std::int32_t> lru_prev_;
  std::vector<std::int32_t> lru_next_;
  std::vector<std::int32_t> bucket_head_;
  std::vector<std::int32_t> bucket_next_;
};

}  // namespace knl::sim
