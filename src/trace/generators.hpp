// Address-stream generators.
//
// These replay concrete address streams into the exact simulators (CacheSim,
// McdramCacheSim, TlbSim) so the analytic hit-rate expressions used at paper
// scale can be validated against ground truth at test scale. They are also
// used by the latency-probe workload to build real pointer-chase buffers.
//
// Two APIs:
//   - chunked (the hot path): stateful generators fill caller-owned
//     std::uint64_t buffers ~4 K addresses at a time via next_chunk(), and
//     for_each_address() drains a generator through a *templated* visitor —
//     no per-address std::function indirection anywhere;
//   - callback (legacy): the generate_* free functions keep the original
//     per-address AddressVisitor signature as thin adapters over the
//     chunked generators.
//
// Determinism contract: every stream is a pure function of the generator's
// arguments, on any standard library. The random draws come from the in-repo
// Mt19937_64, not from <random>: the standard fixes std::mt19937_64's output
// but leaves std::uniform_int_distribution's algorithm to the implementation,
// so the same seed would give other addresses under another library.
// Mt19937_64::below() fixes that algorithm (libstdc++'s), which keeps every
// stream equal to the one the std pair produced under libstdc++.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace knl::trace {

using AddressVisitor = std::function<void(std::uint64_t addr)>;

/// Default chunk capacity: 4 K addresses = 32 KiB, L1-resident so the
/// generator->simulator hand-off stays in cache.
inline constexpr std::size_t kAddressChunk = 4096;

/// MT19937-64, output for output equal to std::mt19937_64 with the same
/// seed. It twists the whole 312-word state at once and tempers the block
/// into a buffer that operator() then reads, so a draw is a load and an
/// index bump.
class Mt19937_64 {
 public:
  explicit Mt19937_64(std::uint64_t seed);

  std::uint64_t operator()() {
    if (next_ == kStateWords) refill();
    return block_[next_++];
  }

  /// A uniform draw in [0, range), range >= 1: the draws
  /// std::uniform_int_distribution<T>(0, range - 1) makes under libstdc++
  /// for T = std::uint64_t or std::uint32_t (Lemire's multiply-and-reject;
  /// the rejection threshold is computed only when the low word could fall
  /// under it).
  std::uint64_t below(std::uint64_t range) {
    __extension__ typedef unsigned __int128 Wide;
    Wide product = static_cast<Wide>((*this)()) * range;
    auto low = static_cast<std::uint64_t>(product);
    if (low < range) {
      const std::uint64_t threshold = (0 - range) % range;
      while (low < threshold) {
        product = static_cast<Wide>((*this)()) * range;
        low = static_cast<std::uint64_t>(product);
      }
    }
    return static_cast<std::uint64_t>(product >> 64);
  }

 private:
  static constexpr std::size_t kStateWords = 312;
  /// Twist the state and temper it into block_.
  void refill();

  std::array<std::uint64_t, kStateWords> state_{};
  std::array<std::uint64_t, kStateWords> block_{};
  std::size_t next_ = kStateWords;
};

/// `sweeps` sequential line-granular passes over [base, base+bytes).
class SweepGenerator {
 public:
  SweepGenerator(std::uint64_t base, std::uint64_t bytes, std::uint64_t line_bytes,
                 int sweeps);
  /// Fill out[0..capacity) with the next addresses; returns the count
  /// written, 0 once the stream is exhausted.
  std::size_t next_chunk(std::uint64_t* out, std::size_t capacity);

 private:
  std::uint64_t base_;
  std::uint64_t bytes_;
  std::uint64_t line_bytes_;
  std::uint64_t offset_ = 0;
  int sweeps_remaining_;
};

/// Constant-stride walk over [base, base+bytes), repeated `sweeps` times.
class StridedGenerator {
 public:
  StridedGenerator(std::uint64_t base, std::uint64_t bytes, std::uint64_t stride_bytes,
                   int sweeps);
  std::size_t next_chunk(std::uint64_t* out, std::size_t capacity);

 private:
  std::uint64_t base_;
  std::uint64_t bytes_;
  std::uint64_t stride_bytes_;
  std::uint64_t offset_ = 0;
  int sweeps_remaining_;
};

/// `count` uniform-random addresses within [base, base+bytes).
class UniformRandomGenerator {
 public:
  UniformRandomGenerator(std::uint64_t base, std::uint64_t bytes, std::uint64_t count,
                         std::uint64_t seed);
  std::size_t next_chunk(std::uint64_t* out, std::size_t capacity);

 private:
  std::uint64_t base_;
  std::uint64_t bytes_;
  std::uint64_t remaining_;
  Mt19937_64 rng_;
};

/// Replay steps of a pointer chase over slots of `slot_bytes` at `base`.
/// The permutation is borrowed, not copied — it must outlive the generator.
class ChaseGenerator {
 public:
  ChaseGenerator(std::uint64_t base, const std::vector<std::uint32_t>& next,
                 std::uint64_t slot_bytes, std::uint64_t count);
  std::size_t next_chunk(std::uint64_t* out, std::size_t capacity);

 private:
  std::uint64_t base_;
  const std::uint32_t* next_;
  std::uint32_t slots_;
  std::uint64_t slot_bytes_;
  std::uint64_t remaining_;
  std::uint32_t cursor_ = 0;
};

/// Drain a chunked generator through a templated visitor (inlined per
/// address — the replacement for the std::function path in hot loops).
template <typename Generator, typename Visitor>
void for_each_address(Generator& gen, Visitor&& visit) {
  std::uint64_t buffer[kAddressChunk];
  for (std::size_t n; (n = gen.next_chunk(buffer, kAddressChunk)) != 0;) {
    for (std::size_t i = 0; i < n; ++i) visit(buffer[i]);
  }
}

/// Collect a generator's whole stream into a vector (test/bench helper).
template <typename Generator>
[[nodiscard]] std::vector<std::uint64_t> collect_addresses(Generator& gen) {
  std::vector<std::uint64_t> out;
  for_each_address(gen, [&](std::uint64_t a) { out.push_back(a); });
  return out;
}

// --------------------------------------------------------------------------
// Legacy per-address callback API (thin adapters over the generators).
// --------------------------------------------------------------------------

/// `sweeps` sequential line-granular passes over [base, base+bytes).
void generate_sweep(std::uint64_t base, std::uint64_t bytes, std::uint64_t line_bytes,
                    int sweeps, const AddressVisitor& visit);

/// Constant-stride walk over [base, base+bytes), repeated `sweeps` times.
void generate_strided(std::uint64_t base, std::uint64_t bytes, std::uint64_t stride_bytes,
                      int sweeps, const AddressVisitor& visit);

/// `count` uniform-random addresses within [base, base+bytes).
void generate_uniform_random(std::uint64_t base, std::uint64_t bytes, std::uint64_t count,
                             std::uint64_t seed, const AddressVisitor& visit);

/// Build a random-permutation pointer-chase order of `n` slots (each slot
/// points to the next index in a single Hamiltonian cycle, Sattolo's
/// algorithm) — the access order a chasing probe would follow.
[[nodiscard]] std::vector<std::uint32_t> build_chase_permutation(std::uint32_t n,
                                                                 std::uint64_t seed);

/// Replay `count` steps of the chase over slots of `slot_bytes` at `base`.
void generate_chase(std::uint64_t base, const std::vector<std::uint32_t>& next,
                    std::uint64_t slot_bytes, std::uint64_t count,
                    const AddressVisitor& visit);

}  // namespace knl::trace
