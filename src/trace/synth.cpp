#include "trace/synth.hpp"

#include <algorithm>
#include <cmath>

#include "trace/generators.hpp"

namespace knl::trace {

namespace {

/// Addresses one phase would emit unbudgeted (clamped to 2^40 so the quota
/// arithmetic cannot overflow).
std::uint64_t desired_addresses(const AccessPhase& phase) {
  constexpr std::uint64_t kCap = 1ull << 40;
  if (phase.pattern == Pattern::Compute || phase.footprint_bytes == 0) return 0;
  const std::uint64_t fp = phase.footprint_bytes;
  switch (phase.pattern) {
    case Pattern::Sequential: {
      const std::uint64_t lines = std::max<std::uint64_t>(1, fp / 64);
      const auto sweeps = static_cast<std::uint64_t>(
          std::max(1.0, std::floor(phase.sweeps + 0.5)));
      return std::min(kCap, lines * std::min<std::uint64_t>(sweeps, 1u << 20));
    }
    case Pattern::Strided: {
      const auto stride = static_cast<std::uint64_t>(
          std::max(64.0, std::floor(phase.stride_bytes + 0.5)));
      const std::uint64_t steps = std::max<std::uint64_t>(1, (fp + stride - 1) / stride);
      const auto sweeps = static_cast<std::uint64_t>(
          std::max(1.0, std::floor(phase.sweeps + 0.5)));
      return std::min(kCap, steps * std::min<std::uint64_t>(sweeps, 1u << 20));
    }
    case Pattern::Random:
    case Pattern::PointerChase: {
      const double accesses = std::max(1.0, phase.accesses());
      return std::min(kCap, static_cast<std::uint64_t>(
                                std::min(accesses, 1.0995116e12)));
    }
    case Pattern::Compute:
      return 0;
  }
  return 0;
}

/// Drain `gen` into `out`, stopping at `quota` addresses.
template <typename Generator>
void emit(Generator& gen, std::uint64_t quota, std::vector<std::uint64_t>& out) {
  std::uint64_t buffer[kAddressChunk];
  std::uint64_t emitted = 0;
  while (emitted < quota) {
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(quota - emitted, kAddressChunk));
    const std::size_t got = gen.next_chunk(buffer, want);
    if (got == 0) break;
    out.insert(out.end(), buffer, buffer + got);
    emitted += got;
  }
}

}  // namespace

std::vector<std::uint64_t> synthesize_trace(const AccessProfile& profile,
                                            const SynthOptions& options) {
  std::vector<std::uint64_t> out;
  if (options.max_addresses == 0) return out;

  std::uint64_t total = 0;
  for (const AccessPhase& phase : profile.phases()) total += desired_addresses(phase);
  if (total == 0) return out;
  out.reserve(static_cast<std::size_t>(std::min(total, options.max_addresses)));

  std::uint64_t phase_index = 0;
  for (const AccessPhase& phase : profile.phases()) {
    const std::uint64_t desired = desired_addresses(phase);
    ++phase_index;
    if (desired == 0) continue;
    // Proportional budget, never zero for a phase that wants addresses.
    std::uint64_t quota = desired;
    if (total > options.max_addresses) {
      quota = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(static_cast<double>(desired) *
                                        static_cast<double>(options.max_addresses) /
                                        static_cast<double>(total)));
    }
    const std::uint64_t fp = phase.footprint_bytes;
    const std::uint64_t phase_seed =
        options.seed ^ (phase_index * 0x9E3779B97F4A7C15ull);
    switch (phase.pattern) {
      case Pattern::Sequential: {
        const auto sweeps = static_cast<int>(std::min<std::uint64_t>(
            static_cast<std::uint64_t>(std::max(1.0, std::floor(phase.sweeps + 0.5))),
            1u << 20));
        SweepGenerator gen(0, fp, 64, sweeps);
        emit(gen, quota, out);
        break;
      }
      case Pattern::Strided: {
        const auto stride = static_cast<std::uint64_t>(
            std::max(64.0, std::floor(phase.stride_bytes + 0.5)));
        const auto sweeps = static_cast<int>(std::min<std::uint64_t>(
            static_cast<std::uint64_t>(std::max(1.0, std::floor(phase.sweeps + 0.5))),
            1u << 20));
        StridedGenerator gen(0, fp, stride, sweeps);
        emit(gen, quota, out);
        break;
      }
      case Pattern::Random: {
        UniformRandomGenerator gen(0, fp, quota, phase_seed);
        emit(gen, quota, out);
        break;
      }
      case Pattern::PointerChase: {
        const auto slots = static_cast<std::uint32_t>(
            std::clamp<std::uint64_t>(fp / 64, 1, 1u << 20));
        const std::vector<std::uint32_t> next =
            build_chase_permutation(slots, phase_seed);
        // Sattolo's permutation is one cycle through every slot, so the
        // chase repeats with period `slots`: walk the first period (its
        // dependent loads are the cost), then copy it for the rest.
        const std::size_t start = out.size();
        ChaseGenerator gen(0, next, 64, std::min<std::uint64_t>(quota, slots));
        emit(gen, quota, out);
        const std::size_t period = out.size() - start;
        for (std::uint64_t left = quota - period; left > 0;) {
          const auto copy = static_cast<std::size_t>(std::min<std::uint64_t>(left, period));
          const std::size_t at = out.size();
          out.resize(at + copy);
          std::copy_n(out.data() + start, copy, out.data() + at);
          left -= copy;
        }
        break;
      }
      case Pattern::Compute:
        break;
    }
  }
  return out;
}

}  // namespace knl::trace
