// MiniFE (paper Table I, Fig. 4b, Fig. 6b): DOE implicit finite-element
// proxy. The performance-critical part — and what the paper measures — is
// the Conjugate-Gradient solve (HPCG-like) over a 27-point hexahedral
// stencil matrix in CSR form. We implement exactly that: mesh-to-CSR
// assembly, SpMV, dot/axpy vector kernels and the CG iteration, with the
// paper's "CG MFLOPS" metric.
#pragma once

#include <cstdint>
#include <vector>

#include "workloads/workload.hpp"

namespace knl::workloads {

/// CSR sparse matrix (double values, 32-bit columns like MiniFE's default
/// local ordinals).
struct CsrMatrix {
  std::uint64_t rows = 0;
  std::vector<std::uint64_t> row_offsets;  // rows + 1
  std::vector<std::uint32_t> cols;
  std::vector<double> vals;

  [[nodiscard]] std::uint64_t nnz() const { return cols.size(); }
};

/// Assemble the 27-point stencil matrix of an nx*ny*nz brick: diagonal 26,
/// off-diagonals -1 (a diagonally dominant Laplacian-like operator, the same
/// sparsity MiniFE's hex-8 assembly produces).
[[nodiscard]] CsrMatrix assemble_27pt(std::uint32_t nx, std::uint32_t ny, std::uint32_t nz);

/// y = A*x.
void spmv(const CsrMatrix& a, const std::vector<double>& x, std::vector<double>& y);

struct CgResult {
  int iterations = 0;
  double final_residual_norm = 0.0;
  bool converged = false;
};

/// Conjugate gradient: solve A*x = b to `tol` relative residual.
CgResult conjugate_gradient(const CsrMatrix& a, const std::vector<double>& b,
                            std::vector<double>& x, int max_iters, double tol);

/// Jacobi-preconditioned CG (M = diag(A)) — the standard MiniFE/HPCG-style
/// preconditioning; converges in no more iterations than plain CG on
/// diagonally dominant operators.
CgResult preconditioned_cg(const CsrMatrix& a, const std::vector<double>& b,
                           std::vector<double>& x, int max_iters, double tol);

class MiniFe final : public Workload {
 public:
  /// Cubic brick of dimension `nx` (rows = nx^3), `cg_iters` CG iterations
  /// (MiniFE's default cap is 200).
  explicit MiniFe(std::uint32_t nx, int cg_iters = 200);

  /// Pick nx so the matrix-size footprint is ~`bytes` (the paper's axis).
  [[nodiscard]] static MiniFe from_footprint(std::uint64_t bytes);

  [[nodiscard]] const WorkloadInfo& info() const override;
  [[nodiscard]] std::uint64_t footprint_bytes() const override;
  [[nodiscard]] trace::AccessProfile profile() const override;

  /// CG MFLOPS (the figure-of-merit MiniFE prints for the CG phase).
  [[nodiscard]] double metric(const RunResult& result) const override;

  void verify() const override;

  [[nodiscard]] std::uint64_t rows() const;
  [[nodiscard]] std::uint64_t matrix_bytes() const;
  [[nodiscard]] std::uint64_t vector_bytes() const;

 private:
  std::uint32_t nx_;
  int cg_iters_;
};

}  // namespace knl::workloads
