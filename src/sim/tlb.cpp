#include "sim/tlb.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>


namespace knl::sim {

double TlbModel::miss_probability(std::uint64_t footprint_bytes) const {
  const double coverage = static_cast<double>(config_.coverage_bytes());
  const double footprint = static_cast<double>(footprint_bytes);
  if (footprint <= coverage) return 0.0;
  return 1.0 - coverage / footprint;
}

double TlbModel::walk_cost_ns(std::uint64_t footprint_bytes) const {
  // Blend from cached-walk to memory-walk cost as the page-table working set
  // outgrows the cache hierarchy. The logistic keeps the transition smooth,
  // matching the gradual latency rise in Fig. 3 rather than a step.
  const double x = static_cast<double>(footprint_bytes) /
                   static_cast<double>(config_.walk_thrash_bytes);
  const double blend = x / (1.0 + x);
  return config_.walk_cached_ns +
         blend * (config_.walk_memory_ns - config_.walk_cached_ns);
}

double TlbModel::expected_penalty_ns(std::uint64_t footprint_bytes) const {
  return miss_probability(footprint_bytes) * walk_cost_ns(footprint_bytes);
}

TlbSim::TlbSim(TlbConfig config) : config_(config) {
  if (config_.page_bytes == 0) {
    throw std::invalid_argument("TlbSim: page_bytes must be positive");
  }
  if (config_.entries < 1) {
    throw std::invalid_argument("TlbSim: need >= 1 TLB entry");
  }
  page_pow2_ = std::has_single_bit(config_.page_bytes);
  if (page_pow2_) {
    page_shift_ = static_cast<unsigned>(std::countr_zero(config_.page_bytes));
  }
  const auto entries = static_cast<std::size_t>(config_.entries);
  // Load factor <= 1/2 keeps bucket chains short.
  const std::size_t buckets = std::bit_ceil(entries * 2);
  bucket_shift_ = 64 - static_cast<unsigned>(std::countr_zero(buckets));
  pages_.assign(entries, 0);
  lru_prev_.assign(entries, -1);
  lru_next_.assign(entries, -1);
  bucket_head_.assign(buckets, -1);
  bucket_next_.assign(entries, -1);
}

void TlbSim::move_to_front(std::int32_t slot) {
  if (slot == head_) return;
  const auto s = static_cast<std::size_t>(slot);
  lru_next_[static_cast<std::size_t>(lru_prev_[s])] = lru_next_[s];
  if (lru_next_[s] >= 0) {
    lru_prev_[static_cast<std::size_t>(lru_next_[s])] = lru_prev_[s];
  } else {
    tail_ = lru_prev_[s];
  }
  lru_prev_[s] = -1;
  lru_next_[s] = head_;
  lru_prev_[static_cast<std::size_t>(head_)] = slot;
  head_ = slot;
}

bool TlbSim::access_slow(std::uint64_t page) {
  const std::size_t bucket = bucket_of(page);
  for (std::int32_t s = bucket_head_[bucket]; s >= 0;
       s = bucket_next_[static_cast<std::size_t>(s)]) {
    if (pages_[static_cast<std::size_t>(s)] == page) {
      move_to_front(s);
      return true;
    }
  }
  ++misses_;
  std::int32_t slot;
  if (filled_ < config_.entries) {
    slot = filled_++;
  } else {
    // Evict the LRU tail: unhook it from its bucket chain and the list end.
    slot = tail_;
    const auto s = static_cast<std::size_t>(slot);
    std::int32_t* link = &bucket_head_[bucket_of(pages_[s])];
    while (*link != slot) link = &bucket_next_[static_cast<std::size_t>(*link)];
    *link = bucket_next_[s];
    tail_ = lru_prev_[s];
    if (tail_ >= 0) {
      lru_next_[static_cast<std::size_t>(tail_)] = -1;
    } else {
      head_ = -1;
    }
  }
  const auto s = static_cast<std::size_t>(slot);
  pages_[s] = page;
  bucket_next_[s] = bucket_head_[bucket];
  bucket_head_[bucket] = slot;
  lru_prev_[s] = -1;
  lru_next_[s] = head_;
  if (head_ >= 0) lru_prev_[static_cast<std::size_t>(head_)] = slot;
  head_ = slot;
  if (tail_ < 0) tail_ = slot;
  return false;
}

}  // namespace knl::sim
