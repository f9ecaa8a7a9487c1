// Advisor: the paper's contribution #6 as an executable API — "a guideline
// for setting correct expectation for performance improvement on systems
// with 3D-stacked high-bandwidth memories".
//
// Given an application characterization (the three factors the paper
// identifies: access pattern, problem size, threading), the advisor runs the
// machine model over the candidate configurations and returns the ranked
// recommendation with predicted speedups and the paper-style rationale.
// Each configuration is one Machine::run_threads call over the thread counts
// 64..256 the app allows; DRAM's first entry (DRAM@64) is the baseline every
// speedup is normalized to, so the app must allow at least 64 threads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/machine.hpp"
#include "trace/profile.hpp"

namespace knl {

/// Application characterization, as a user would describe their code.
struct AppCharacteristics {
  std::string name = "app";
  /// Fraction of memory traffic that is regular/streaming (1 = STREAM-like,
  /// 0 = GUPS-like).
  double regular_fraction = 1.0;
  /// Resident problem size in bytes.
  std::uint64_t footprint_bytes = 0;
  /// Flops per byte of memory traffic (arithmetic intensity).
  double flops_per_byte = 0.0;
  /// Whether the code scales with hardware threads (some codes cap at one
  /// thread per core, like the paper's DGEMM run that failed at 256). At
  /// least 64: the DRAM@64 baseline must be a candidate.
  int max_threads = 256;
  /// Average useful bytes per random access (gather granularity).
  std::uint64_t random_granule_bytes = 8;
};

struct Recommendation {
  MemConfig config = MemConfig::DRAM;
  int threads = 64;
  double predicted_speedup_vs_dram64 = 1.0;  ///< vs DRAM @ 64 threads.
  bool feasible = true;
  std::string rationale;
};

struct Advice {
  Recommendation best;
  /// All evaluated candidates, best first.
  std::vector<Recommendation> ranked;
  /// Paper-style qualitative classification: "bandwidth-bound",
  /// "latency-bound", or "compute-bound".
  std::string classification;
};

class Advisor {
 public:
  explicit Advisor(const Machine& machine) : machine_(machine) {}

  /// Evaluate all memory configs x thread counts and rank them. Throws
  /// std::invalid_argument when app.max_threads < 64.
  [[nodiscard]] Advice advise(const AppCharacteristics& app) const;

  /// Build the synthetic profile the advisor evaluates (exposed for tests).
  [[nodiscard]] static trace::AccessProfile synthesize(const AppCharacteristics& app);

 private:
  const Machine& machine_;
};

}  // namespace knl
