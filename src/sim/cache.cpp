#include "sim/cache.hpp"

#include <bit>
#include <stdexcept>

#include "sim/simd.hpp"

namespace knl::sim {

namespace {

[[nodiscard]] bool is_pow2(std::uint64_t v) { return v != 0 && std::has_single_bit(v); }

}  // namespace

CacheSim::CacheSim(CacheConfig config) : config_(config) {
  if (config_.capacity_bytes == 0 || config_.line_bytes == 0 || config_.ways <= 0) {
    throw std::invalid_argument("CacheSim: capacity, line size and ways must be positive");
  }
  if (!is_pow2(config_.line_bytes)) {
    throw std::invalid_argument("CacheSim: line_bytes must be a power of two");
  }
  if (!is_pow2(static_cast<std::uint64_t>(config_.ways))) {
    throw std::invalid_argument("CacheSim: ways must be a power of two");
  }
  if (config_.sample_every == 0) {
    throw std::invalid_argument("CacheSim: sample_every must be >= 1");
  }
  num_sets_ = config_.num_sets();  // safe: divisor validated above
  if (num_sets_ == 0) {
    throw std::invalid_argument("CacheSim: capacity smaller than one set");
  }
  line_shift_ = static_cast<unsigned>(std::countr_zero(config_.line_bytes));
  sets_pow2_ = is_pow2(num_sets_);
  if (sets_pow2_) {
    set_shift_ = static_cast<unsigned>(std::countr_zero(num_sets_));
    set_mask_ = num_sets_ - 1;
  }
  num_sampled_sets_ = (num_sets_ + config_.sample_every - 1) / config_.sample_every;
  slabs_.resize(
      static_cast<std::size_t>((num_sampled_sets_ + kSlabSets - 1) >> kSlabSetShift));
}

CacheSim::Slab& CacheSim::slab_for(std::uint64_t sampled_idx) {
  auto& slot = slabs_[static_cast<std::size_t>(sampled_idx >> kSlabSetShift)];
  if (!slot) {
    const std::uint64_t first = (sampled_idx >> kSlabSetShift) << kSlabSetShift;
    const std::uint64_t sets = std::min(kSlabSets, num_sampled_sets_ - first);
    const auto entries =
        static_cast<std::size_t>(sets) * static_cast<std::size_t>(config_.ways);
    slot = std::make_unique<Slab>();
    slot->tag.assign(entries, 0);
    slot->tick.assign(entries, 0);
  }
  return *slot;
}

bool CacheSim::access_sampled(std::uint64_t line, std::uint64_t set_idx) {
  const std::uint64_t sampled =
      config_.sample_every == 1 ? set_idx : set_idx / config_.sample_every;
  Slab& slab = slab_for(sampled);
  const std::size_t base = static_cast<std::size_t>(sampled & (kSlabSets - 1)) *
                           static_cast<std::size_t>(config_.ways);
  std::uint64_t* tags = slab.tag.data() + base;
  std::uint64_t* ticks = slab.tick.data() + base;
  const std::uint64_t tag = tag_of(line);

  ++tick_;
  ++stats_.accesses;
  // One pass finds a hit and the victim: lowest-index invalid way if any
  // (an invalid victim is sticky), else the strict-minimum tick (LRU).
  int victim = 0;
  std::uint64_t victim_tick = ticks[0];
  for (int w = 0; w < config_.ways; ++w) {
    const std::uint64_t t = ticks[w];
    if (t != 0 && tags[w] == tag) {
      ticks[w] = tick_;
      ++stats_.hits;
      return true;
    }
    if (victim_tick != 0 && (t == 0 || t < victim_tick)) {
      victim = w;
      victim_tick = t;
    }
  }
  ++stats_.misses;
  if (victim_tick != 0) {
    ++stats_.evictions;
  } else {
    ++resident_;
  }
  tags[victim] = tag;
  ticks[victim] = tick_;
  return false;
}

void CacheSim::ensure_soa_scratch() {
  if (soa_set_.empty()) {
    soa_set_.resize(simd::kSoaChunk);
    soa_tag_.resize(simd::kSoaChunk);
  }
}

template <int kWays>
void CacheSim::apply_block_pow2(const std::uint64_t* sets, const std::uint64_t* tags_in,
                                std::size_t n, BlockStats& block, std::uint64_t& evictions,
                                std::uint64_t& filled, SlabCursor& cursor) {
  std::uint64_t tick = tick_;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t sampled = sets[i];
    const std::uint64_t tag = tags_in[i];
    const std::uint64_t slab_idx = sampled >> kSlabSetShift;
    if (slab_idx != cursor.idx) {
      Slab& slab = slab_for(sampled);
      cursor.idx = slab_idx;
      cursor.tags = slab.tag.data();
      cursor.ticks = slab.tick.data();
    }
    const std::size_t base =
        static_cast<std::size_t>(sampled & (kSlabSets - 1)) * static_cast<std::size_t>(kWays);
    std::uint64_t* tags = cursor.tags + base;
    std::uint64_t* ticks = cursor.ticks + base;

    ++tick;
    ++block.sampled;
    int victim = 0;
    std::uint64_t victim_tick = ticks[0];
    bool hit = false;
    for (int w = 0; w < kWays; ++w) {
      const std::uint64_t t = ticks[w];
      if (t != 0 && tags[w] == tag) {
        ticks[w] = tick;
        hit = true;
        break;
      }
      if (victim_tick != 0 && (t == 0 || t < victim_tick)) {
        victim = w;
        victim_tick = t;
      }
    }
    if (hit) {
      ++block.hits;
      continue;
    }
    ++block.misses;
    if (victim_tick != 0) {
      ++evictions;
    } else {
      ++filled;
    }
    tags[victim] = tag;
    ticks[victim] = tick;
  }
  tick_ = tick;
}

template <int kWays>
BlockStats CacheSim::access_block_soa(const std::uint64_t* addrs, std::size_t n) {
  ensure_soa_scratch();
  const std::uint64_t sample_every = config_.sample_every;
  const bool sampling = sample_every != 1;
  const std::uint64_t sample_mask = sample_every - 1;
  const auto sample_shift =
      sampling ? static_cast<unsigned>(std::countr_zero(sample_every)) : 0u;

  BlockStats block;
  std::uint64_t evictions = 0;
  std::uint64_t filled = 0;
  SlabCursor cursor;
  for (std::size_t off = 0; off < n; off += simd::kSoaChunk) {
    const std::size_t m = std::min(simd::kSoaChunk, n - off);
    std::size_t kept;
    if (sampling) {
      kept = simd::decompose_pow2_sampled(addrs + off, m, line_shift_, set_mask_,
                                          set_shift_, sample_mask, sample_shift,
                                          soa_set_.data(), soa_tag_.data());
    } else {
      simd::decompose_pow2(addrs + off, m, line_shift_, set_mask_, set_shift_,
                           soa_set_.data(), soa_tag_.data());
      kept = m;
    }
    apply_block_pow2<kWays>(soa_set_.data(), soa_tag_.data(), kept, block, evictions,
                            filled, cursor);
  }

  resident_ += filled;
  stats_.accesses += block.sampled;
  stats_.hits += block.hits;
  stats_.misses += block.misses;
  stats_.evictions += evictions;
  return block;
}

template <int kWays>
BlockStats CacheSim::access_block_scalar(std::span<const std::uint64_t> addrs) {
  // Non-power-of-two geometry: division/modulo index math, one predictable
  // sampling branch per address, same one-pass LRU scan as the SoA apply.
  const unsigned line_shift = line_shift_;
  const std::uint64_t num_sets = num_sets_;
  const std::uint64_t sample_every = config_.sample_every;
  const bool sample_pow2 = std::has_single_bit(sample_every);
  const std::uint64_t sample_mask = sample_every - 1;
  const auto sample_shift =
      sample_pow2 ? static_cast<unsigned>(std::countr_zero(sample_every)) : 0u;

  std::uint64_t tick = tick_;
  BlockStats block;
  std::uint64_t evictions = 0;
  std::uint64_t filled = 0;
  SlabCursor cursor;

  for (const std::uint64_t addr : addrs) {
    const std::uint64_t line = addr >> line_shift;
    const std::uint64_t set_idx = line % num_sets;
    std::uint64_t sampled = set_idx;
    if (sample_every != 1) {
      if (sample_pow2) {
        if ((set_idx & sample_mask) != 0) continue;
        sampled = set_idx >> sample_shift;
      } else {
        if (set_idx % sample_every != 0) continue;
        sampled = set_idx / sample_every;
      }
    }
    const std::uint64_t tag = line / num_sets;
    const std::uint64_t slab_idx = sampled >> kSlabSetShift;
    if (slab_idx != cursor.idx) {
      Slab& slab = slab_for(sampled);
      cursor.idx = slab_idx;
      cursor.tags = slab.tag.data();
      cursor.ticks = slab.tick.data();
    }
    const std::size_t base =
        static_cast<std::size_t>(sampled & (kSlabSets - 1)) * static_cast<std::size_t>(kWays);
    std::uint64_t* tags = cursor.tags + base;
    std::uint64_t* ticks = cursor.ticks + base;

    ++tick;
    ++block.sampled;
    int victim = 0;
    std::uint64_t victim_tick = ticks[0];
    bool hit = false;
    for (int w = 0; w < kWays; ++w) {
      const std::uint64_t t = ticks[w];
      if (t != 0 && tags[w] == tag) {
        ticks[w] = tick;
        hit = true;
        break;
      }
      if (victim_tick != 0 && (t == 0 || t < victim_tick)) {
        victim = w;
        victim_tick = t;
      }
    }
    if (hit) {
      ++block.hits;
      continue;
    }
    ++block.misses;
    if (victim_tick != 0) {
      ++evictions;
    } else {
      ++filled;
    }
    tags[victim] = tag;
    ticks[victim] = tick;
  }

  tick_ = tick;
  resident_ += filled;
  stats_.accesses += block.sampled;
  stats_.hits += block.hits;
  stats_.misses += block.misses;
  stats_.evictions += evictions;
  return block;
}

BlockStats CacheSim::access_block_generic(std::span<const std::uint64_t> addrs) {
  const CacheStats before = stats_;
  for (const std::uint64_t addr : addrs) (void)access(addr);
  return {stats_.accesses - before.accesses, stats_.hits - before.hits,
          stats_.misses - before.misses};
}

BlockStats CacheSim::access_block(std::span<const std::uint64_t> addrs) {
  const std::uint64_t sample_every = config_.sample_every;
  const bool pow2 = sets_pow2_ && (sample_every == 1 ||
                                   (std::has_single_bit(sample_every) &&
                                    sample_every <= num_sets_));
  const std::uint64_t* data = addrs.data();
  const std::size_t n = addrs.size();
  switch (config_.ways) {
    case 1: return pow2 ? access_block_soa<1>(data, n) : access_block_scalar<1>(addrs);
    case 2: return pow2 ? access_block_soa<2>(data, n) : access_block_scalar<2>(addrs);
    case 4: return pow2 ? access_block_soa<4>(data, n) : access_block_scalar<4>(addrs);
    case 8: return pow2 ? access_block_soa<8>(data, n) : access_block_scalar<8>(addrs);
    case 16: return pow2 ? access_block_soa<16>(data, n) : access_block_scalar<16>(addrs);
    default: return access_block_generic(addrs);
  }
}

std::uint64_t CacheSim::access_range(std::uint64_t addr, std::uint64_t bytes) {
  if (bytes == 0) return 0;
  std::uint64_t misses = 0;
  const std::uint64_t first = addr / config_.line_bytes;
  const std::uint64_t last = (addr + bytes - 1) / config_.line_bytes;
  for (std::uint64_t line = first; line <= last; ++line) {
    if (!access(line * config_.line_bytes)) ++misses;
  }
  return misses;
}

void CacheSim::flush() {
  for (auto& slab : slabs_) slab.reset();
  resident_ = 0;
}

}  // namespace knl::sim
