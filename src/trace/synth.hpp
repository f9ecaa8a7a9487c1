// Deterministic trace synthesis from an AccessProfile.
//
// The single-pass sweep engine (report/sweep.hpp SweepPlanner) and the
// per-cell reference simulator both need a concrete address stream standing
// in for a workload's memory behaviour. This module realizes each phase of
// an AccessProfile with the trace generators (trace/generators.hpp) —
// sequential sweeps, constant strides, uniform-random draws, pointer
// chases — at a bounded, budgeted scale, so a paper-scale profile yields a
// test-scale trace in milliseconds.
//
// Determinism contract: the stream is a pure function of (profile fields,
// SynthOptions). Same inputs -> bit-identical addresses, which is what lets
// profiling passes be fingerprinted and cached (SweepCache) and lets the
// single-pass and per-cell engines replay the *same* trace. That holds
// across standard libraries too: the random and chase phases draw from the
// in-repo Mt19937_64 (trace/generators.hpp), not from <random>'s
// distributions, whose algorithms the standard leaves to the
// implementation. tests/trace/synth_test.cpp pins every registry
// workload's stream by digest.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/profile.hpp"

namespace knl::trace {

struct SynthOptions {
  /// Hard budget on emitted addresses; each phase gets a proportional quota
  /// (its stream is prefix-truncated at the quota, never reordered).
  std::uint64_t max_addresses = 1ull << 22;
  /// Seed for the random/chase phases (mixed with the phase index, so two
  /// random phases do not replay the same draw sequence).
  std::uint64_t seed = 0x9E3779B97F4A7C15ull;

  friend bool operator==(const SynthOptions&, const SynthOptions&) = default;
};

/// Materialize the profile's address stream: phases in order, each starting
/// at byte address 0 (phases of one workload share the resident buffers,
/// matching how the analytic model treats the footprint).
[[nodiscard]] std::vector<std::uint64_t> synthesize_trace(
    const AccessProfile& profile, const SynthOptions& options = {});

}  // namespace knl::trace
