#include "sim/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string_view>

#if defined(__x86_64__) || defined(__i386__)
#define KNL_SIMD_X86 1
#include <immintrin.h>
#else
#define KNL_SIMD_X86 0
#endif

namespace knl::sim::simd {

namespace {

// -1 = unresolved; otherwise a Level. Resolution is idempotent, so a benign
// race on first use at worst resolves twice to the same value.
std::atomic<int> g_level{-1};

Level resolve_from_env(Level best) {
  const char* env = std::getenv("KNL_SIMD");
  if (env == nullptr) return best;
  const std::string_view want(env);
  Level requested = best;
  if (want == "scalar") requested = Level::kScalar;
  else if (want == "sse2") requested = Level::kSse2;
  else if (want == "avx2") requested = Level::kAvx2;
  return static_cast<int>(requested) < static_cast<int>(best) ? requested : best;
}

// ---------------------------------------------------------------------------
// Scalar kernels — the reference implementation every level must match.
// ---------------------------------------------------------------------------

void decompose_scalar(const std::uint64_t* addrs, std::size_t n, unsigned line_shift,
                      std::uint64_t set_mask, unsigned set_shift, std::uint64_t* set_out,
                      std::uint64_t* tag_out) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t line = addrs[i] >> line_shift;
    set_out[i] = line & set_mask;
    tag_out[i] = line >> set_shift;
  }
}

std::size_t decompose_sampled_scalar(const std::uint64_t* addrs, std::size_t n,
                                     unsigned line_shift, std::uint64_t set_mask,
                                     unsigned set_shift, std::uint64_t sample_mask,
                                     unsigned sample_shift, std::uint64_t* set_out,
                                     std::uint64_t* tag_out) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t line = addrs[i] >> line_shift;
    if ((line & sample_mask) != 0) continue;
    set_out[kept] = (line & set_mask) >> sample_shift;
    tag_out[kept] = line >> set_shift;
    ++kept;
  }
  return kept;
}

#if KNL_SIMD_X86

// ---------------------------------------------------------------------------
// SSE2 kernels (2 x 64-bit lanes). Shift counts are runtime values, so the
// variable-count forms (_mm_srl_epi64) are used throughout.
// ---------------------------------------------------------------------------

void decompose_sse2(const std::uint64_t* addrs, std::size_t n, unsigned line_shift,
                    std::uint64_t set_mask, unsigned set_shift, std::uint64_t* set_out,
                    std::uint64_t* tag_out) {
  const __m128i ls = _mm_cvtsi32_si128(static_cast<int>(line_shift));
  const __m128i ss = _mm_cvtsi32_si128(static_cast<int>(set_shift));
  const __m128i mask = _mm_set1_epi64x(static_cast<long long>(set_mask));
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(addrs + i));
    const __m128i line = _mm_srl_epi64(a, ls);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(set_out + i), _mm_and_si128(line, mask));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(tag_out + i), _mm_srl_epi64(line, ss));
  }
  decompose_scalar(addrs + i, n - i, line_shift, set_mask, set_shift, set_out + i,
                   tag_out + i);
}

std::size_t decompose_sampled_sse2(const std::uint64_t* addrs, std::size_t n,
                                   unsigned line_shift, std::uint64_t set_mask,
                                   unsigned set_shift, std::uint64_t sample_mask,
                                   unsigned sample_shift, std::uint64_t* set_out,
                                   std::uint64_t* tag_out) {
  const __m128i ls = _mm_cvtsi32_si128(static_cast<int>(line_shift));
  const __m128i smask = _mm_set1_epi64x(static_cast<long long>(sample_mask));
  const __m128i zero = _mm_setzero_si128();
  std::size_t kept = 0;
  std::size_t i = 0;
  alignas(16) std::uint64_t lanes[2];
  for (; i + 2 <= n; i += 2) {
    const __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(addrs + i));
    const __m128i line = _mm_srl_epi64(a, ls);
    // Lane keeps iff (line & sample_mask) == 0; movemask yields one bit per
    // lane so fully-rejected pairs (the common case) cost no extraction.
    // SSE2 has no 64-bit compare, so test both 32-bit halves: cmpeq_epi32
    // then AND each half with its shuffled partner — a 64-bit lane is
    // all-ones iff both halves compared equal to zero.
    const __m128i eq32 = _mm_cmpeq_epi32(_mm_and_si128(line, smask), zero);
    const __m128i eq64 =
        _mm_and_si128(eq32, _mm_shuffle_epi32(eq32, _MM_SHUFFLE(2, 3, 0, 1)));
    const int keep = _mm_movemask_pd(_mm_castsi128_pd(eq64));
    if (keep == 0) continue;
    _mm_store_si128(reinterpret_cast<__m128i*>(lanes), line);
    for (int lane = 0; lane < 2; ++lane) {
      if ((keep & (1 << lane)) == 0) continue;
      set_out[kept] = (lanes[lane] & set_mask) >> sample_shift;
      tag_out[kept] = lanes[lane] >> set_shift;
      ++kept;
    }
  }
  kept += decompose_sampled_scalar(addrs + i, n - i, line_shift, set_mask, set_shift,
                                   sample_mask, sample_shift, set_out + kept,
                                   tag_out + kept);
  return kept;
}

// ---------------------------------------------------------------------------
// AVX2 kernels (4 x 64-bit lanes), compiled with a target attribute so the
// rest of the library keeps the portable baseline ISA; only ever called
// after __builtin_cpu_supports("avx2") reported true.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) void decompose_avx2(
    const std::uint64_t* addrs, std::size_t n, unsigned line_shift,
    std::uint64_t set_mask, unsigned set_shift, std::uint64_t* set_out,
    std::uint64_t* tag_out) {
  const __m128i ls = _mm_cvtsi32_si128(static_cast<int>(line_shift));
  const __m128i ss = _mm_cvtsi32_si128(static_cast<int>(set_shift));
  const __m256i mask = _mm256_set1_epi64x(static_cast<long long>(set_mask));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(addrs + i));
    const __m256i line = _mm256_srl_epi64(a, ls);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(set_out + i),
                        _mm256_and_si256(line, mask));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(tag_out + i),
                        _mm256_srl_epi64(line, ss));
  }
  decompose_scalar(addrs + i, n - i, line_shift, set_mask, set_shift, set_out + i,
                   tag_out + i);
}

__attribute__((target("avx2"))) std::size_t decompose_sampled_avx2(
    const std::uint64_t* addrs, std::size_t n, unsigned line_shift,
    std::uint64_t set_mask, unsigned set_shift, std::uint64_t sample_mask,
    unsigned sample_shift, std::uint64_t* set_out, std::uint64_t* tag_out) {
  const __m128i ls = _mm_cvtsi32_si128(static_cast<int>(line_shift));
  const __m256i smask = _mm256_set1_epi64x(static_cast<long long>(sample_mask));
  const __m256i zero = _mm256_setzero_si256();
  std::size_t kept = 0;
  std::size_t i = 0;
  alignas(32) std::uint64_t lanes[4];
  for (; i + 4 <= n; i += 4) {
    const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(addrs + i));
    const __m256i line = _mm256_srl_epi64(a, ls);
    const int keep = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(_mm256_and_si256(line, smask), zero)));
    if (keep == 0) continue;
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), line);
    for (int lane = 0; lane < 4; ++lane) {
      if ((keep & (1 << lane)) == 0) continue;
      set_out[kept] = (lanes[lane] & set_mask) >> sample_shift;
      tag_out[kept] = lanes[lane] >> set_shift;
      ++kept;
    }
  }
  kept += decompose_sampled_scalar(addrs + i, n - i, line_shift, set_mask, set_shift,
                                   sample_mask, sample_shift, set_out + kept,
                                   tag_out + kept);
  return kept;
}

#endif  // KNL_SIMD_X86

}  // namespace

Level cpu_level() noexcept {
#if KNL_SIMD_X86
  if (__builtin_cpu_supports("avx2")) return Level::kAvx2;
  return Level::kSse2;  // SSE2 is the x86-64 baseline
#else
  return Level::kScalar;
#endif
}

Level active_level() noexcept {
  const int cached = g_level.load(std::memory_order_relaxed);
  if (cached >= 0) return static_cast<Level>(cached);
  const Level resolved = resolve_from_env(cpu_level());
  g_level.store(static_cast<int>(resolved), std::memory_order_relaxed);
  return resolved;
}

const char* level_name(Level level) noexcept {
  switch (level) {
    case Level::kSse2: return "sse2";
    case Level::kAvx2: return "avx2";
    case Level::kScalar: break;
  }
  return "scalar";
}

Level set_level_for_testing(Level level) noexcept {
  const Level best = cpu_level();
  const Level clamped =
      static_cast<int>(level) < static_cast<int>(best) ? level : best;
  g_level.store(static_cast<int>(clamped), std::memory_order_relaxed);
  return clamped;
}

void reset_level_for_testing() noexcept {
  g_level.store(-1, std::memory_order_relaxed);
}

void decompose_pow2(const std::uint64_t* addrs, std::size_t n, unsigned line_shift,
                    std::uint64_t set_mask, unsigned set_shift, std::uint64_t* set_out,
                    std::uint64_t* tag_out) {
  switch (active_level()) {
#if KNL_SIMD_X86
    case Level::kAvx2:
      decompose_avx2(addrs, n, line_shift, set_mask, set_shift, set_out, tag_out);
      return;
    case Level::kSse2:
      decompose_sse2(addrs, n, line_shift, set_mask, set_shift, set_out, tag_out);
      return;
#endif
    default:
      decompose_scalar(addrs, n, line_shift, set_mask, set_shift, set_out, tag_out);
      return;
  }
}

std::size_t decompose_pow2_sampled(const std::uint64_t* addrs, std::size_t n,
                                   unsigned line_shift, std::uint64_t set_mask,
                                   unsigned set_shift, std::uint64_t sample_mask,
                                   unsigned sample_shift, std::uint64_t* set_out,
                                   std::uint64_t* tag_out) {
  switch (active_level()) {
#if KNL_SIMD_X86
    case Level::kAvx2:
      return decompose_sampled_avx2(addrs, n, line_shift, set_mask, set_shift,
                                    sample_mask, sample_shift, set_out, tag_out);
    case Level::kSse2:
      return decompose_sampled_sse2(addrs, n, line_shift, set_mask, set_shift,
                                    sample_mask, sample_shift, set_out, tag_out);
#endif
    default:
      return decompose_sampled_scalar(addrs, n, line_shift, set_mask, set_shift,
                                      sample_mask, sample_shift, set_out, tag_out);
  }
}

}  // namespace knl::sim::simd
