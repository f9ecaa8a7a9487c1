// GUPS / HPCC RandomAccess (paper Table I, Fig. 4c): giga-updates-per-second
// to uniformly random 64-bit table slots. The canonical latency-bound,
// zero-locality probe of a memory system.
//
// The kernel follows the HPCC specification: table[ran & (n-1)] ^= ran with
// the ran = (ran << 1) ^ (poly feedback) LCG over GF(2), 4*n updates. XOR
// updates are self-inverse, which gives the verification step: replaying
// the same stream restores the initial table.
#pragma once

#include <cstdint>
#include <vector>

#include "workloads/workload.hpp"

namespace knl::workloads {

class Gups final : public Workload {
 public:
  /// `table_bytes` must be a power of two (HPCC requirement).
  explicit Gups(std::uint64_t table_bytes);

  /// Largest power-of-two table that fits in `bytes` (rounding down, with
  /// the constructor's 2-entry minimum) — the factory convention the other
  /// workloads expose for the paper's size axes.
  [[nodiscard]] static Gups from_footprint(std::uint64_t bytes);

  [[nodiscard]] const WorkloadInfo& info() const override;
  [[nodiscard]] std::uint64_t footprint_bytes() const override { return table_bytes_; }
  [[nodiscard]] trace::AccessProfile profile() const override;

  /// GUPS = updates / seconds / 1e9.
  [[nodiscard]] double metric(const RunResult& result) const override;

  void verify() const override;

  [[nodiscard]] std::uint64_t table_entries() const noexcept { return entries_; }
  [[nodiscard]] std::uint64_t updates() const noexcept { return 4 * entries_; }

  /// HPCC random stream: next value of the GF(2) LCG.
  [[nodiscard]] static std::uint64_t next_random(std::uint64_t ran);

  /// Run `count` updates against a real table (used by verify/tests).
  static void run_updates(std::vector<std::uint64_t>& table, std::uint64_t count,
                          std::uint64_t seed);

 private:
  std::uint64_t table_bytes_;
  std::uint64_t entries_;
};

}  // namespace knl::workloads
