// Runtime-dispatched SIMD kernels for the replay hot path.
//
// The batched classification loop in CacheSim splits each address block
// into two stages: a *decomposition* stage that turns the AoS address
// stream into SoA set-index/tag arrays — pure element-wise shift/mask work
// with no loop-carried state — and a stateful *apply* stage that walks
// those arrays through the LRU structures. Decomposition is the
// part worth vectorizing, and this module provides it three ways:
//
//   kScalar  portable fallback (also the auto-vectorization baseline);
//   kSse2    128-bit / 2 lanes — the x86-64 baseline, always available;
//   kAvx2    256-bit / 4 lanes, selected when the CPU reports AVX2.
//
// Every level computes bit-identical outputs (exact integer shift/mask), so
// dispatch is a pure performance decision; tests force each level through
// set_level_for_testing() and assert equality against the scalar reference.
//
// Dispatch is resolved once per process from CPUID, overridable with
// KNL_SIMD=scalar|sse2|avx2 (clamped to what the CPU supports) so a
// deployment can pin the level and benchmarks can label their context.
#pragma once

#include <cstddef>
#include <cstdint>

namespace knl::sim::simd {

enum class Level : int { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// SoA staging width used by the batched simulators: one chunk's address
/// input plus its set/tag output arrays is 24 KiB, so the whole working set
/// of the decompose+apply loop stays L1-resident while still amortizing the
/// per-chunk dispatch to nothing.
inline constexpr std::size_t kSoaChunk = 1024;

/// Best level supported by this CPU (ignoring overrides).
[[nodiscard]] Level cpu_level() noexcept;

/// Level in effect: cpu_level() clamped by KNL_SIMD and any testing
/// override. Cached after the first call.
[[nodiscard]] Level active_level() noexcept;

[[nodiscard]] const char* level_name(Level level) noexcept;

/// Force a dispatch level (clamped to cpu_level()); returns the level now in
/// effect. Tests use this to compare paths; not thread-safe against
/// concurrent kernel calls.
Level set_level_for_testing(Level level) noexcept;

/// Drop the testing override and re-resolve from CPUID + KNL_SIMD.
void reset_level_for_testing() noexcept;

/// Power-of-two geometry decomposition:
///   line   = addrs[i] >> line_shift
///   set    = line & set_mask        -> set_out[i]
///   tag    = line >> set_shift      -> tag_out[i]
void decompose_pow2(const std::uint64_t* addrs, std::size_t n, unsigned line_shift,
                    std::uint64_t set_mask, unsigned set_shift, std::uint64_t* set_out,
                    std::uint64_t* tag_out);

/// Sampled variant: keeps only addresses whose line satisfies
/// (line & sample_mask) == 0 (sample_mask fits inside set_mask), writing the
/// *sampled* set index ((line & set_mask) >> sample_shift) and the tag,
/// compacted in stream order. Returns the kept count. The rejected lanes are
/// the common case for sampled configs, so the kernel is a vectorized
/// skip-scan with scalar extraction of the rare survivors.
std::size_t decompose_pow2_sampled(const std::uint64_t* addrs, std::size_t n,
                                   unsigned line_shift, std::uint64_t set_mask,
                                   unsigned set_shift, std::uint64_t sample_mask,
                                   unsigned sample_shift, std::uint64_t* set_out,
                                   std::uint64_t* tag_out);

}  // namespace knl::sim::simd
