#include "trace/generators.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace knl::trace {

Mt19937_64::Mt19937_64(std::uint64_t seed) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kStateWords; ++i) {
    const std::uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ull * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::refill() {
  // The recurrence of [rand.eng.mers] with n = 312, m = 156, r = 31. The
  // twist's conditional xor of `a` is a mask, so the loops carry no
  // data-dependent branch.
  constexpr std::size_t kShift = 156;
  constexpr std::uint64_t kA = 0xb5026f5aa96619e9ull;
  constexpr std::uint64_t kUpper = ~0ull << 31;
  constexpr std::uint64_t kLower = ~kUpper;
  const auto twist = [](std::uint64_t hi, std::uint64_t lo, std::uint64_t far) {
    const std::uint64_t y = (hi & kUpper) | (lo & kLower);
    return far ^ (y >> 1) ^ (kA & (0 - (y & 1)));
  };
  std::uint64_t* x = state_.data();
  for (std::size_t k = 0; k < kStateWords - kShift; ++k) {
    x[k] = twist(x[k], x[k + 1], x[k + kShift]);
  }
  for (std::size_t k = kStateWords - kShift; k < kStateWords - 1; ++k) {
    x[k] = twist(x[k], x[k + 1], x[k + kShift - kStateWords]);
  }
  x[kStateWords - 1] = twist(x[kStateWords - 1], x[0], x[kShift - 1]);

  for (std::size_t k = 0; k < kStateWords; ++k) {
    std::uint64_t z = x[k];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71d67fffeda60000ull;
    z ^= (z << 37) & 0xfff7eee000000000ull;
    z ^= z >> 43;
    block_[k] = z;
  }
  next_ = 0;
}

SweepGenerator::SweepGenerator(std::uint64_t base, std::uint64_t bytes,
                               std::uint64_t line_bytes, int sweeps)
    : base_(base), bytes_(bytes), line_bytes_(line_bytes), sweeps_remaining_(sweeps) {
  if (line_bytes_ == 0) throw std::invalid_argument("generate_sweep: line_bytes == 0");
  if (bytes_ == 0) sweeps_remaining_ = 0;  // zero-byte region: empty stream
}

std::size_t SweepGenerator::next_chunk(std::uint64_t* out, std::size_t capacity) {
  std::size_t n = 0;
  while (n < capacity && sweeps_remaining_ > 0) {
    out[n++] = base_ + offset_;
    offset_ += line_bytes_;
    if (offset_ >= bytes_) {
      offset_ = 0;
      --sweeps_remaining_;
    }
  }
  return n;
}

StridedGenerator::StridedGenerator(std::uint64_t base, std::uint64_t bytes,
                                   std::uint64_t stride_bytes, int sweeps)
    : base_(base), bytes_(bytes), stride_bytes_(stride_bytes), sweeps_remaining_(sweeps) {
  if (stride_bytes_ == 0) throw std::invalid_argument("generate_strided: stride == 0");
  if (bytes_ == 0) sweeps_remaining_ = 0;
}

std::size_t StridedGenerator::next_chunk(std::uint64_t* out, std::size_t capacity) {
  std::size_t n = 0;
  while (n < capacity && sweeps_remaining_ > 0) {
    out[n++] = base_ + offset_;
    offset_ += stride_bytes_;
    if (offset_ >= bytes_) {
      offset_ = 0;
      --sweeps_remaining_;
    }
  }
  return n;
}

UniformRandomGenerator::UniformRandomGenerator(std::uint64_t base, std::uint64_t bytes,
                                               std::uint64_t count, std::uint64_t seed)
    : base_(base), bytes_(bytes), remaining_(count), rng_(seed) {
  if (bytes == 0) throw std::invalid_argument("generate_uniform_random: empty range");
}

std::size_t UniformRandomGenerator::next_chunk(std::uint64_t* out, std::size_t capacity) {
  const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(capacity, remaining_));
  for (std::size_t i = 0; i < n; ++i) out[i] = base_ + rng_.below(bytes_);
  remaining_ -= n;
  return n;
}

ChaseGenerator::ChaseGenerator(std::uint64_t base, const std::vector<std::uint32_t>& next,
                               std::uint64_t slot_bytes, std::uint64_t count)
    : base_(base),
      next_(next.data()),
      slots_(static_cast<std::uint32_t>(next.size())),
      slot_bytes_(slot_bytes),
      remaining_(count) {
  if (next.empty()) throw std::invalid_argument("generate_chase: empty permutation");
}

std::size_t ChaseGenerator::next_chunk(std::uint64_t* out, std::size_t capacity) {
  std::size_t n = 0;
  std::uint32_t cur = cursor_;
  while (n < capacity && remaining_ > 0) {
    out[n++] = base_ + static_cast<std::uint64_t>(cur) * slot_bytes_;
    cur = next_[cur];
    --remaining_;
  }
  cursor_ = cur;
  return n;
}

// --------------------------------------------------------------------------
// Legacy callback adapters.
// --------------------------------------------------------------------------

void generate_sweep(std::uint64_t base, std::uint64_t bytes, std::uint64_t line_bytes,
                    int sweeps, const AddressVisitor& visit) {
  SweepGenerator gen(base, bytes, line_bytes, sweeps);
  for_each_address(gen, visit);
}

void generate_strided(std::uint64_t base, std::uint64_t bytes, std::uint64_t stride_bytes,
                      int sweeps, const AddressVisitor& visit) {
  StridedGenerator gen(base, bytes, stride_bytes, sweeps);
  for_each_address(gen, visit);
}

void generate_uniform_random(std::uint64_t base, std::uint64_t bytes, std::uint64_t count,
                             std::uint64_t seed, const AddressVisitor& visit) {
  UniformRandomGenerator gen(base, bytes, count, seed);
  for_each_address(gen, visit);
}

std::vector<std::uint32_t> build_chase_permutation(std::uint32_t n, std::uint64_t seed) {
  if (n < 2) throw std::invalid_argument("build_chase_permutation: need >= 2 slots");
  // Sattolo's algorithm yields a uniformly random single-cycle permutation:
  // following next[] visits every slot exactly once before returning, so the
  // chase cannot short-cycle and defeat the latency measurement.
  std::vector<std::uint32_t> next(n);
  for (std::uint32_t i = 0; i < n; ++i) next[i] = i;
  Mt19937_64 rng(seed);
  for (std::uint32_t i = n - 1; i > 0; --i) std::swap(next[i], next[rng.below(i)]);
  return next;
}

void generate_chase(std::uint64_t base, const std::vector<std::uint32_t>& next,
                    std::uint64_t slot_bytes, std::uint64_t count,
                    const AddressVisitor& visit) {
  ChaseGenerator gen(base, next, slot_bytes, count);
  for_each_address(gen, visit);
}

}  // namespace knl::trace
