#include "sim/reuse_profile.hpp"

#include <algorithm>
#include <bit>
#include <future>
#include <numeric>
#include <stdexcept>

#include "core/thread_pool.hpp"
#include "sim/cache.hpp"
#include "sim/simd.hpp"

namespace knl::sim {

namespace {

[[nodiscard]] bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

constexpr std::uint64_t kMtfSetThreshold = 4096;

}  // namespace

ReuseProfile::ReuseProfile(ReuseProfileConfig config) : config_(config) {
  if (!is_pow2(config_.line_bytes)) {
    throw std::invalid_argument("ReuseProfile: line_bytes must be a power of two");
  }
  if (config_.num_sets == 0) {
    throw std::invalid_argument("ReuseProfile: num_sets must be >= 1");
  }
  if (config_.sample_every == 0) {
    throw std::invalid_argument("ReuseProfile: sample_every must be >= 1");
  }
  if (config_.max_depth == 0) {
    throw std::invalid_argument("ReuseProfile: max_depth must be >= 1");
  }
  if (config_.shard_stride == 0 || config_.shard_phase >= config_.shard_stride) {
    throw std::invalid_argument("ReuseProfile: shard_phase must be < shard_stride");
  }
  num_sampled_sets_ =
      (config_.num_sets + config_.sample_every - 1) / config_.sample_every;
  if (num_sampled_sets_ > (1ull << 26)) {
    throw std::invalid_argument("ReuseProfile: too many sampled sets (> 2^26)");
  }

  use_mtf_ = config_.strategy == ReuseStrategy::kMtf ||
             (config_.strategy == ReuseStrategy::kAuto &&
              config_.num_sets >= kMtfSetThreshold);
  if (use_mtf_) {
    mtf_.resize(static_cast<std::size_t>(num_sampled_sets_));
  } else {
    fenwick_.resize(static_cast<std::size_t>(num_sampled_sets_));
    for (FenwickSet& set : fenwick_) set.tree.assign(1, 0);  // 1-indexed dummy
  }

  line_shift_ = static_cast<unsigned>(std::countr_zero(config_.line_bytes));
  // The SIMD decompose path needs every index operand to be a shift/mask:
  // pow2 set count, and sampling either off or a pow2 stride within the set
  // bits — exactly CacheSim's conditions.
  pow2_path_ = is_pow2(config_.num_sets) &&
               (config_.sample_every == 1 ||
                (is_pow2(config_.sample_every) &&
                 config_.sample_every <= config_.num_sets));
  if (pow2_path_) {
    set_shift_ = static_cast<unsigned>(std::countr_zero(config_.num_sets));
    set_mask_ = config_.num_sets - 1;
    sample_shift_ = static_cast<unsigned>(std::countr_zero(config_.sample_every));
    sample_mask_ = config_.sample_every - 1;
  }
}

void ReuseProfile::observe(const std::uint64_t* addrs, std::size_t n) {
  if (n == 0) return;
  if (!pow2_path_) {
    observe_scalar(addrs, n);
    return;
  }
  if (soa_set_.empty()) {
    soa_set_.resize(simd::kSoaChunk);
    soa_tag_.resize(simd::kSoaChunk);
  }
  const bool filtered = config_.shard_stride != 1;
  for (std::size_t done = 0; done < n;) {
    const std::size_t chunk = std::min(n - done, simd::kSoaChunk);
    std::size_t kept = chunk;
    if (config_.sample_every == 1) {
      simd::decompose_pow2(addrs + done, chunk, line_shift_, set_mask_, set_shift_,
                           soa_set_.data(), soa_tag_.data());
    } else {
      kept = simd::decompose_pow2_sampled(addrs + done, chunk, line_shift_, set_mask_,
                                          set_shift_, sample_mask_, sample_shift_,
                                          soa_set_.data(), soa_tag_.data());
    }
    for (std::size_t i = 0; i < kept; ++i) {
      const std::uint64_t sampled_idx = soa_set_[i];
      if (filtered && sampled_idx % config_.shard_stride != config_.shard_phase) {
        continue;
      }
      apply(sampled_idx, soa_tag_[i]);
    }
    done += chunk;
  }
}

void ReuseProfile::observe_scalar(const std::uint64_t* addrs, std::size_t n) {
  const bool filtered = config_.shard_stride != 1;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t line = addrs[i] >> line_shift_;
    const std::uint64_t set_idx = line % config_.num_sets;
    if (config_.sample_every != 1 && set_idx % config_.sample_every != 0) continue;
    const std::uint64_t sampled_idx = set_idx / config_.sample_every;
    if (filtered && sampled_idx % config_.shard_stride != config_.shard_phase) {
      continue;
    }
    apply(sampled_idx, line / config_.num_sets);
  }
}

void ReuseProfile::apply(std::uint64_t sampled_idx, std::uint64_t tag) {
  ++sampled_;
  if (use_mtf_) {
    apply_mtf(mtf_[static_cast<std::size_t>(sampled_idx)], tag);
  } else {
    apply_fenwick(fenwick_[static_cast<std::size_t>(sampled_idx)], tag);
  }
}

void ReuseProfile::apply_mtf(std::vector<std::uint64_t>& set, std::uint64_t tag) {
  // Recency order, front = MRU: the tag's position IS its stack distance.
  const std::size_t depth = set.size();
  for (std::size_t i = 0; i < depth; ++i) {
    if (set[i] == tag) {
      record_distance(i);
      for (std::size_t j = i; j > 0; --j) set[j] = set[j - 1];
      set[0] = tag;
      return;
    }
  }
  ++cold_;
  set.insert(set.begin(), tag);
}

void ReuseProfile::apply_fenwick(FenwickSet& set, std::uint64_t tag) {
  // Bennett-Kruskal: one mark per distinct tag, kept at its latest access
  // time; distance = marks in (last, now]. The append exploits that a new
  // BIT slot's value is v plus the sums of its sub-spans, all already known.
  const auto prefix = [&set](std::uint64_t i) {
    std::uint64_t s = 0;
    for (; i > 0; i -= i & (~i + 1)) s += set.tree[i];
    return s;
  };
  const auto add = [&set](std::uint64_t i, std::uint64_t delta) {
    for (; i <= set.now; i += i & (~i + 1)) set.tree[i] += delta;
  };
  const auto append = [&set](std::uint64_t v) {
    const std::uint64_t idx = ++set.now;
    std::uint64_t s = v;
    for (std::uint64_t step = 1; step < (idx & (~idx + 1)); step <<= 1) {
      s += set.tree[idx - step];
    }
    set.tree.push_back(s);
  };

  const auto it = set.last.find(tag);
  if (it == set.last.end()) {
    ++cold_;
    append(1);
    set.last.emplace(tag, set.now);
    return;
  }
  const std::uint64_t last = it->second;
  record_distance(prefix(set.now) - prefix(last));
  add(last, ~0ull);  // unmark the stale slot (unsigned wrap = subtract 1)
  append(1);
  it->second = set.now;
}

void ReuseProfile::record_distance(std::uint64_t distance) {
  if (distance >= config_.max_depth) {
    ++beyond_;
    return;
  }
  if (distance >= histogram_.size()) histogram_.resize(distance + 1, 0);
  ++histogram_[static_cast<std::size_t>(distance)];
}

std::uint64_t ReuseProfile::hits_for_ways(std::uint64_t ways) const {
  if (ways == 0) return 0;
  if (ways > config_.max_depth) {
    throw std::invalid_argument(
        "ReuseProfile::hits_for_ways: ways exceeds the profiled max_depth");
  }
  // A pure read: summed on demand, so concurrent queries on one shared
  // profile need no synchronization.
  const auto top = static_cast<std::ptrdiff_t>(std::min<std::uint64_t>(ways, histogram_.size()));
  return std::accumulate(histogram_.begin(), histogram_.begin() + top, std::uint64_t{0});
}

std::uint64_t ReuseProfile::hits_for_capacity(std::uint64_t capacity_bytes) const {
  return hits_for_ways(capacity_bytes / (config_.line_bytes * config_.num_sets));
}

double ReuseProfile::hit_rate_for_capacity(std::uint64_t capacity_bytes) const {
  if (sampled_ == 0) return 0.0;
  return static_cast<double>(hits_for_capacity(capacity_bytes)) /
         static_cast<double>(sampled_);
}

void ReuseProfile::merge(const ReuseProfile& other) {
  if (other.config_.line_bytes != config_.line_bytes ||
      other.config_.num_sets != config_.num_sets ||
      other.config_.sample_every != config_.sample_every ||
      other.config_.max_depth != config_.max_depth) {
    throw std::invalid_argument("ReuseProfile::merge: geometry mismatch");
  }
  sampled_ += other.sampled_;
  cold_ += other.cold_;
  beyond_ += other.beyond_;
  if (other.histogram_.size() > histogram_.size()) {
    histogram_.resize(other.histogram_.size(), 0);
  }
  for (std::size_t d = 0; d < other.histogram_.size(); ++d) {
    histogram_[d] += other.histogram_[d];
  }
}

void ReuseProfile::reset() {
  sampled_ = 0;
  cold_ = 0;
  beyond_ = 0;
  histogram_.clear();
  for (auto& set : mtf_) set.clear();
  for (FenwickSet& set : fenwick_) {
    set.tree.assign(1, 0);
    set.last.clear();
    set.now = 0;
  }
}

ReuseProfile profile_trace(const std::uint64_t* addrs, std::size_t n,
                           const ReuseProfileConfig& config, int workers) {
  if (config.shard_stride != 1) {
    throw std::invalid_argument("profile_trace: config must be unsharded");
  }
  const std::uint64_t sampled_sets =
      (config.num_sets + config.sample_every - 1) / config.sample_every;
  const int resolved = workers <= 0
                           ? static_cast<int>(core::ThreadPool::hardware_threads())
                           : workers;
  const std::uint64_t shards = std::min<std::uint64_t>(
      {static_cast<std::uint64_t>(std::max(resolved, 1)), sampled_sets, 16});
  if (shards <= 1 || n == 0) {
    ReuseProfile profile(config);
    profile.observe(addrs, n);
    return profile;
  }

  // Each shard profiles its modular slice of the sampled sets over the whole
  // stream; the union is exact because distances never cross sets.
  std::vector<ReuseProfile> parts;
  parts.reserve(static_cast<std::size_t>(shards));
  for (std::uint64_t k = 0; k < shards; ++k) {
    ReuseProfileConfig shard_config = config;
    shard_config.shard_stride = shards;
    shard_config.shard_phase = k;
    parts.emplace_back(shard_config);
  }
  {
    core::ThreadPool pool(static_cast<unsigned>(shards));
    std::vector<std::future<void>> futures;
    futures.reserve(parts.size());
    for (ReuseProfile& part : parts) {
      futures.push_back(pool.submit([&part, addrs, n] { part.observe(addrs, n); }));
    }
    for (auto& future : futures) future.get();
  }
  ReuseProfile profile(config);
  for (const ReuseProfile& part : parts) profile.merge(part);
  return profile;
}

CapacityReference replay_capacity_reference(const std::uint64_t* addrs, std::size_t n,
                                            const ReuseProfileConfig& geometry,
                                            std::uint64_t ways) {
  if (ways == 0) {
    throw std::invalid_argument("replay_capacity_reference: ways must be >= 1");
  }
  CapacityReference out;
  if (is_pow2(ways) && ways <= (1ull << 20)) {
    CacheSim sim(CacheConfig{
        .capacity_bytes = geometry.line_bytes * geometry.num_sets * ways,
        .line_bytes = geometry.line_bytes,
        .ways = static_cast<int>(ways),
        .sample_every = geometry.sample_every});
    const BlockStats block = sim.access_block(std::span(addrs, n));
    out.sampled = block.sampled;
    out.hits = block.hits;
    return out;
  }

  // Non-pow2 associativity: per-set MTF list truncated at `ways` entries —
  // plain LRU with the same set/tag decomposition and sampling rule.
  const unsigned line_shift =
      static_cast<unsigned>(std::countr_zero(geometry.line_bytes));
  const std::uint64_t sampled_sets =
      (geometry.num_sets + geometry.sample_every - 1) / geometry.sample_every;
  std::vector<std::vector<std::uint64_t>> sets(
      static_cast<std::size_t>(sampled_sets));
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t line = addrs[i] >> line_shift;
    const std::uint64_t set_idx = line % geometry.num_sets;
    if (geometry.sample_every != 1 && set_idx % geometry.sample_every != 0) continue;
    auto& set = sets[static_cast<std::size_t>(set_idx / geometry.sample_every)];
    const std::uint64_t tag = line / geometry.num_sets;
    ++out.sampled;
    bool hit = false;
    for (std::size_t j = 0; j < set.size(); ++j) {
      if (set[j] == tag) {
        hit = true;
        for (std::size_t k = j; k > 0; --k) set[k] = set[k - 1];
        set[0] = tag;
        break;
      }
    }
    if (hit) {
      ++out.hits;
      continue;
    }
    set.insert(set.begin(), tag);
    if (set.size() > ways) set.pop_back();
  }
  return out;
}

}  // namespace knl::sim
