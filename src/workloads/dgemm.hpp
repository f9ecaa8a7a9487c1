// DGEMM (paper Table I, Fig. 4a, Fig. 6a): dense matrix multiply,
// C = alpha*A*B + beta*C, the NERSC APEX benchmark the paper links against
// MKL. Here the kernel is a cache-blocked implementation (the substitution
// for MKL; same sequential, locality-optimized traffic shape).
//
// The paper reports GFLOPS. DGEMM sits near the compute/bandwidth roofline
// crossover at one thread/core: on DRAM the packing + panel traffic is
// bandwidth-bound (~0.5x), on HBM it is compute-bound — which is exactly the
// paper's 1.4-2.2x HBM speedup band across sizes.
#pragma once

#include <cstdint>
#include <vector>

#include "workloads/workload.hpp"

namespace knl::workloads {

class Dgemm final : public Workload {
 public:
  /// `n` = square matrix dimension. Footprint = 3 * n^2 * 8 bytes (the
  /// paper's "Array Size" axis).
  explicit Dgemm(std::uint64_t n);

  /// Convenience: pick n so that the footprint is ~`bytes`.
  [[nodiscard]] static Dgemm from_footprint(std::uint64_t bytes);

  [[nodiscard]] const WorkloadInfo& info() const override;
  [[nodiscard]] std::uint64_t footprint_bytes() const override;
  [[nodiscard]] trace::AccessProfile profile() const override;

  /// GFLOPS = 2n^3 / time.
  [[nodiscard]] double metric(const RunResult& result) const override;

  void verify() const override;

  [[nodiscard]] std::uint64_t n() const noexcept { return n_; }

  /// Effective flops-per-byte of memory traffic for this problem size —
  /// the calibrated MKL-like packing/panel traffic model (documented in
  /// DESIGN.md §4; anchored to the paper's 1.4x improvement at 0.1 GB and
  /// 2.2x at 6 GB).
  [[nodiscard]] double effective_flops_per_byte() const;

  /// Real blocked kernel: C = A*B for row-major n x n matrices.
  static void multiply_blocked(const std::vector<double>& a, const std::vector<double>& b,
                               std::vector<double>& c, std::size_t n,
                               std::size_t block = 64);
  /// Naive reference for validation.
  static void multiply_naive(const std::vector<double>& a, const std::vector<double>& b,
                             std::vector<double>& c, std::size_t n);

 private:
  std::uint64_t n_;
};

}  // namespace knl::workloads
