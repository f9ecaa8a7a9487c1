#include "sim/reuse_profile.hpp"

#include <algorithm>
#include <bit>
#include <future>
#include <iterator>
#include <numeric>
#include <stdexcept>

#include "core/thread_pool.hpp"
#include "sim/cache.hpp"
#include "sim/simd.hpp"

namespace knl::sim {

namespace {

[[nodiscard]] bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

constexpr std::uint64_t kMtfSetThreshold = 4096;
/// Row capacity of a fresh slab (tags per owned set).
constexpr std::uint64_t kInitialRowCap = 4;
/// Stamp-table rows are padded to a multiple of this many slots: the fixed
/// width of the count's inner loop.
constexpr std::size_t kStampBlock = 8;
/// Accesses between the one being applied and the one being prefetched:
/// enough to hide a miss to memory behind the scans in between.
constexpr std::size_t kPrefetchAhead = 8;
/// Leading bytes of a row worth prefetching (four cache lines): past that a
/// row is deep enough for its own scan to cover the fetch.
constexpr std::size_t kPrefetchBytes = 256;

/// Largest of addrs[0..n), n >= 1. Four independent maxima keep the loop
/// bound by its reads rather than by one compare chain: std::max_element
/// took about 2.5x as long on a freshly synthesized 2 MiB trace.
std::uint64_t max_address(const std::uint64_t* addrs, std::size_t n) {
  std::uint64_t m0 = 0, m1 = 0, m2 = 0, m3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    m0 = std::max(m0, addrs[i]);
    m1 = std::max(m1, addrs[i + 1]);
    m2 = std::max(m2, addrs[i + 2]);
    m3 = std::max(m3, addrs[i + 3]);
  }
  for (; i < n; ++i) m0 = std::max(m0, addrs[i]);
  return std::max(std::max(m0, m1), std::max(m2, m3));
}

/// Start fetching the leading lines of the `bytes` at `row`.
void prefetch_row(const void* row, std::size_t bytes) {
  const auto* p = static_cast<const char*>(row);
  const std::size_t span = std::min(bytes, kPrefetchBytes);
  for (std::size_t k = 0; k < span; k += 64) __builtin_prefetch(p + k);
}

/// Slots of a stamp-table row stamped later than `last`: the distinct tags
/// of the set touched since that access, i.e. its stack distance. `width`
/// is a multiple of kStampBlock, so the inner loop has a fixed width that
/// gcc -O3 turns into vector compares; padding slots hold 0 and never count.
std::uint64_t count_later(const std::uint32_t* row, std::size_t width, std::uint32_t last) {
  std::uint32_t lanes[kStampBlock] = {};
  for (std::size_t k = 0; k < width; k += kStampBlock) {
    for (std::size_t j = 0; j < kStampBlock; ++j) lanes[j] += row[k + j] > last ? 1u : 0u;
  }
  std::uint32_t count = 0;
  for (const std::uint32_t lane : lanes) count += lane;
  return count;
}

/// Free a container's storage (clear() keeps the capacity).
template <typename Container>
void release(Container& c) {
  Container().swap(c);
}

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
  const std::uint64_t sampled_sets =
      (config_.num_sets + config_.sample_every - 1) / config_.sample_every;
  if (sampled_sets > (1ull << 26)) {
    throw std::invalid_argument("ReuseProfile: too many sampled sets (> 2^26)");
  }
  num_rows_ = sampled_sets > config_.shard_phase
                  ? (sampled_sets - config_.shard_phase + config_.shard_stride - 1) /
                        config_.shard_stride
                  : 0;

  use_mtf_ = config_.strategy == ReuseStrategy::kMtf ||
             (config_.strategy == ReuseStrategy::kAuto &&
              config_.num_sets >= kMtfSetThreshold);

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

void ReuseProfile::reserve_rows(std::uint64_t max_address, std::uint64_t n) {
  if (!soa_set_.empty() || sealed_) {
    throw std::logic_error("ReuseProfile::reserve_rows: observing has begun");
  }
  commitment_ = Commitment{max_address, n};
  stamp_width_ = 0;
  if (!use_mtf_) return;
  const std::uint64_t sampled_sets =
      (config_.num_sets + config_.sample_every - 1) / config_.sample_every;
  // The tag bound is top_tag + 1, compared as top_tag < n / sampled_sets so
  // that it cannot wrap for a max_address near 2^64. n < 2^32 keeps every
  // stamp in a uint32_t.
  const std::uint64_t top_tag = (max_address >> line_shift_) / config_.num_sets;
  if (n >= (1ull << 32) || top_tag >= n / sampled_sets) return;
  stamp_width_ = (top_tag / kStampBlock + 1) * kStampBlock;
}

void ReuseProfile::allocate_working_state() {
  const auto rows = static_cast<std::size_t>(num_rows_);
  if (stamp_width_ != 0) {
    stamps_.assign(rows * stamp_width_, 0);
  } else if (use_mtf_) {
    row_cap_ = kInitialRowCap;
    slab_.assign(rows * row_cap_, 0);
    depth_.assign(rows, 0);
  } else {
    fenwick_.resize(rows);
    for (FenwickSet& set : fenwick_) set.tree.assign(1, 0);  // 1-indexed dummy
  }
  soa_set_.resize(simd::kSoaChunk);
  soa_tag_.resize(simd::kSoaChunk);
}

void ReuseProfile::release_working_state() {
  release(stamps_);
  stamp_width_ = 0;
  stamped_ = 0;
  commitment_.reset();
  release(slab_);
  release(depth_);
  release(spill_);
  release(fenwick_);
  release(soa_set_);
  release(soa_tag_);
  row_cap_ = 0;
  distinct_ = 0;
}

void ReuseProfile::observe(const std::uint64_t* addrs, std::size_t n) {
  if (sealed_) {
    throw std::logic_error("ReuseProfile::observe: the profile is sealed");
  }
  if (n == 0) return;
  if (commitment_) {
    if (n > commitment_->left) {
      throw std::logic_error("ReuseProfile::observe: more addresses than reserve_rows allowed");
    }
    commitment_->left -= n;
  }
  if (soa_set_.empty()) allocate_working_state();
  for (std::size_t done = 0; done < n;) {
    const std::size_t chunk = std::min(n - done, simd::kSoaChunk);
    const std::uint64_t* block = addrs + done;
    // Checked per chunk, while the chunk is in cache for the decompose.
    if (commitment_ && max_address(block, chunk) > commitment_->max_address) {
      throw std::logic_error("ReuseProfile::observe: an address above reserve_rows' max");
    }
    apply_staged(pow2_path_ ? stage_pow2(block, chunk) : stage_scalar(block, chunk));
    done += chunk;
  }
}

std::size_t ReuseProfile::stage_pow2(const std::uint64_t* addrs, std::size_t n) {
  std::size_t kept = n;
  if (config_.sample_every == 1) {
    simd::decompose_pow2(addrs, n, line_shift_, set_mask_, set_shift_, soa_set_.data(),
                         soa_tag_.data());
  } else {
    kept = simd::decompose_pow2_sampled(addrs, n, line_shift_, set_mask_, set_shift_,
                                        sample_mask_, sample_shift_, soa_set_.data(),
                                        soa_tag_.data());
  }
  const std::uint64_t stride = config_.shard_stride;
  if (stride == 1) return kept;
  // Keep this shard's accesses, compacted in stream order, with the sampled
  // set index turned into the shard's row index.
  std::size_t owned = 0;
  for (std::size_t i = 0; i < kept; ++i) {
    const std::uint64_t sampled_idx = soa_set_[i];
    if (sampled_idx % stride != config_.shard_phase) continue;
    soa_set_[owned] = sampled_idx / stride;
    soa_tag_[owned] = soa_tag_[i];
    ++owned;
  }
  return owned;
}

std::size_t ReuseProfile::stage_scalar(const std::uint64_t* addrs, std::size_t n) {
  std::size_t staged = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t line = addrs[i] >> line_shift_;
    const std::uint64_t set_idx = line % config_.num_sets;
    if (config_.sample_every != 1 && set_idx % config_.sample_every != 0) continue;
    const std::uint64_t sampled_idx = set_idx / config_.sample_every;
    if (sampled_idx % config_.shard_stride != config_.shard_phase) continue;
    soa_set_[staged] = sampled_idx / config_.shard_stride;
    soa_tag_[staged] = line / config_.num_sets;
    ++staged;
  }
  return staged;
}

void ReuseProfile::record_distance(std::uint64_t distance) {
  // The histogram never outgrows max_depth, so a distance inside it is
  // inside the depth too: one compare on the common path.
  if (distance < histogram_.size()) {
    ++histogram_[static_cast<std::size_t>(distance)];
  } else if (distance >= config_.max_depth) {
    ++beyond_;
  } else {
    histogram_.resize(distance + 1, 0);
    ++histogram_[static_cast<std::size_t>(distance)];
  }
}

void ReuseProfile::apply_staged(std::size_t n) {
  const std::uint64_t* rows = soa_set_.data();
  const std::uint64_t* tags = soa_tag_.data();
  sampled_ += n;
  if (!use_mtf_) {
    for (std::size_t i = 0; i < n; ++i) {
      apply_fenwick(fenwick_[static_cast<std::size_t>(rows[i])], tags[i]);
    }
    return;
  }
  // Random sets make each access a likely cache miss; start the fetch of a
  // later access's row while this one is applied. A slab row is re-read at
  // its turn, so a growth in between only wastes the hint.
  const auto pipelined = [n, rows, tags](auto&& prefetch, auto&& apply) {
    const std::size_t ahead = n > kPrefetchAhead ? n - kPrefetchAhead : 0;
    for (std::size_t i = 0; i < ahead; ++i) {
      prefetch(static_cast<std::size_t>(rows[i + kPrefetchAhead]));
      apply(static_cast<std::size_t>(rows[i]), tags[i]);
    }
    for (std::size_t i = ahead; i < n; ++i) apply(static_cast<std::size_t>(rows[i]), tags[i]);
  };
  if (stamp_width_ == 0) {
    pipelined(
        [this](std::size_t r) {
          prefetch_row(slab_.data() + r * row_cap_, row_cap_ * sizeof(std::uint64_t));
          __builtin_prefetch(depth_.data() + r);
        },
        [this](std::size_t row, std::uint64_t tag) { apply_slab(row, tag); });
    return;
  }
  std::uint32_t* const table = stamps_.data();
  const std::size_t width = stamp_width_;
  std::uint32_t now = stamped_;
  pipelined(
      [table, width](std::size_t r) {
        prefetch_row(table + r * width, width * sizeof(std::uint32_t));
      },
      [&](std::size_t row, std::uint64_t tag) {
        std::uint32_t* slots = table + row * width;
        const std::uint32_t last = slots[tag];
        if (last == 0) {
          ++cold_;
        } else {
          record_distance(count_later(slots, width, last));
        }
        // Stamped after the count: a store into the row just before the
        // count's wide loads of it stalls them on store forwarding.
        slots[tag] = ++now;
      });
  stamped_ = now;
}

void ReuseProfile::apply_slab(std::uint64_t row, std::uint64_t tag) {
  // Carry-shift: walk the recency list MRU first, writing each slot's
  // predecessor (the new tag into slot 0) while searching. Stopping at the
  // tag's old slot leaves it at the front, everything before it one slot
  // down, and its old position is the stack distance. A full walk is a
  // cold miss with the LRU tag still in the carry.
  const auto r = static_cast<std::size_t>(row);
  std::uint64_t* slots = slab_.data() + r * row_cap_;
  const std::uint64_t depth = depth_[r];
  const std::uint64_t live = std::min(depth, row_cap_);
  std::uint64_t carry = tag;
  for (std::uint64_t i = 0; i < live; ++i) {
    const std::uint64_t seen = slots[i];
    slots[i] = carry;
    if (seen == tag) {
      record_distance(i);
      return;
    }
    carry = seen;
  }
  if (depth > row_cap_) {
    std::vector<std::uint64_t>& tail = spill_.find(row)->second;
    for (std::size_t j = 0; j < tail.size(); ++j) {
      const std::uint64_t seen = tail[j];
      tail[j] = carry;
      if (seen == tag) {
        record_distance(row_cap_ + j);
        return;
      }
      carry = seen;
    }
  }
  ++cold_;
  append_cold(row, carry);
}

void ReuseProfile::append_cold(std::uint64_t row, std::uint64_t tag) {
  // `tag` becomes the row's new LRU end: in the slab while the row has
  // room, else at the end of its spill tail.
  const auto r = static_cast<std::size_t>(row);
  const std::uint64_t depth = depth_[r]++;
  ++distinct_;
  if (depth < row_cap_) {
    slab_[r * row_cap_ + depth] = tag;
    return;
  }
  spill_[row].push_back(tag);
  // Double the rows only once they are half full on average, so a few
  // deep sets cannot inflate every row: memory stays O(distinct tags).
  if (2 * distinct_ >= num_rows_ * row_cap_) grow_slab();
}

void ReuseProfile::grow_slab() {
  const std::uint64_t cap = 2 * row_cap_;
  std::vector<std::uint64_t> slab(static_cast<std::size_t>(num_rows_ * cap), 0);
  for (std::size_t r = 0; r < num_rows_; ++r) {
    const std::uint64_t live = std::min(depth_[r], row_cap_);
    std::copy_n(slab_.data() + r * row_cap_, live, slab.data() + r * cap);
  }
  // Spill tails move back into the widened rows, front first.
  for (auto it = spill_.begin(); it != spill_.end();) {
    std::vector<std::uint64_t>& tail = it->second;
    const auto moved = static_cast<std::ptrdiff_t>(
        std::min<std::uint64_t>(tail.size(), cap - row_cap_));
    std::copy_n(tail.begin(), moved,
                slab.begin() + static_cast<std::ptrdiff_t>(it->first * cap + row_cap_));
    tail.erase(tail.begin(), tail.begin() + moved);
    it = tail.empty() ? spill_.erase(it) : std::next(it);
  }
  slab_ = std::move(slab);
  row_cap_ = cap;
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

void ReuseProfile::seal() {
  release_working_state();
  sealed_ = true;
}

std::size_t ReuseProfile::working_bytes() const noexcept {
  const auto map_bytes = [](const auto& map, std::size_t entry_bytes) {
    return map.empty() ? 0 : map.bucket_count() * sizeof(void*) + map.size() * entry_bytes;
  };
  std::size_t bytes = stamps_.capacity() * sizeof(std::uint32_t) +
                      slab_.capacity() * sizeof(std::uint64_t) +
                      depth_.capacity() * sizeof(std::uint64_t) +
                      (soa_set_.capacity() + soa_tag_.capacity()) * sizeof(std::uint64_t) +
                      map_bytes(spill_, sizeof(decltype(spill_)::value_type));
  for (const auto& entry : spill_) {
    bytes += entry.second.capacity() * sizeof(std::uint64_t);
  }
  bytes += fenwick_.capacity() * sizeof(FenwickSet);
  for (const FenwickSet& set : fenwick_) {
    bytes += set.tree.capacity() * sizeof(std::uint64_t) +
             map_bytes(set.last, sizeof(decltype(set.last)::value_type));
  }
  return bytes;
}

void ReuseProfile::reset() {
  sampled_ = 0;
  cold_ = 0;
  beyond_ = 0;
  histogram_.clear();
  release_working_state();
  sealed_ = false;
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
  if (n == 0) {
    ReuseProfile profile(config);
    profile.seal();
    return profile;
  }
  const std::uint64_t top = max_address(addrs, n);
  if (shards <= 1) {
    ReuseProfile profile(config);
    profile.reserve_rows(top, n);
    profile.observe(addrs, n);
    profile.seal();
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
    parts.emplace_back(shard_config).reserve_rows(top, n);
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
  profile.seal();
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
