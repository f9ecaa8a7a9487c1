#include "workloads/minife.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/fault/error.hpp"
#include "core/types.hpp"

namespace knl::workloads {

CsrMatrix assemble_27pt(std::uint32_t nx, std::uint32_t ny, std::uint32_t nz) {
  if (nx == 0 || ny == 0 || nz == 0) {
    throw std::invalid_argument("assemble_27pt: empty brick");
  }
  const std::uint64_t rows =
      static_cast<std::uint64_t>(nx) * ny * nz;
  CsrMatrix a;
  a.rows = rows;
  a.row_offsets.reserve(rows + 1);
  a.row_offsets.push_back(0);
  // Up to 27 entries per row; interior rows get all of them.
  a.cols.reserve(rows * 27);
  a.vals.reserve(rows * 27);

  auto index = [&](std::uint32_t x, std::uint32_t y, std::uint32_t z) {
    return (static_cast<std::uint64_t>(z) * ny + y) * nx + x;
  };

  for (std::uint32_t z = 0; z < nz; ++z) {
    for (std::uint32_t y = 0; y < ny; ++y) {
      for (std::uint32_t x = 0; x < nx; ++x) {
        const std::uint64_t row = index(x, y, z);
        std::uint32_t neighbours = 0;
        for (int dz = -1; dz <= 1; ++dz) {
          for (int dy = -1; dy <= 1; ++dy) {
            for (int dx = -1; dx <= 1; ++dx) {
              const std::int64_t xx = static_cast<std::int64_t>(x) + dx;
              const std::int64_t yy = static_cast<std::int64_t>(y) + dy;
              const std::int64_t zz = static_cast<std::int64_t>(z) + dz;
              if (xx < 0 || yy < 0 || zz < 0 || xx >= nx || yy >= ny || zz >= nz) {
                continue;
              }
              const std::uint64_t col = index(static_cast<std::uint32_t>(xx),
                                              static_cast<std::uint32_t>(yy),
                                              static_cast<std::uint32_t>(zz));
              if (col == row) continue;
              a.cols.push_back(static_cast<std::uint32_t>(col));
              a.vals.push_back(-1.0);
              ++neighbours;
            }
          }
        }
        // Strictly diagonally dominant: diag = neighbours + 1.
        a.cols.push_back(static_cast<std::uint32_t>(row));
        a.vals.push_back(static_cast<double>(neighbours) + 1.0);
        a.row_offsets.push_back(a.cols.size());
      }
    }
  }
  return a;
}

void spmv(const CsrMatrix& a, const std::vector<double>& x, std::vector<double>& y) {
  if (x.size() != a.rows || y.size() != a.rows) {
    throw std::invalid_argument("spmv: vector size mismatch");
  }
  for (std::uint64_t row = 0; row < a.rows; ++row) {
    double acc = 0.0;
    for (std::uint64_t k = a.row_offsets[row]; k < a.row_offsets[row + 1]; ++k) {
      acc += a.vals[k] * x[a.cols[k]];
    }
    y[row] = acc;
  }
}

namespace {

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

void axpy(double alpha, const std::vector<double>& x, std::vector<double>& y) {
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

}  // namespace

CgResult conjugate_gradient(const CsrMatrix& a, const std::vector<double>& b,
                            std::vector<double>& x, int max_iters, double tol) {
  if (b.size() != a.rows || x.size() != a.rows) {
    throw std::invalid_argument("conjugate_gradient: vector size mismatch");
  }
  std::vector<double> r = b;
  std::vector<double> ap(a.rows, 0.0);
  spmv(a, x, ap);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] -= ap[i];
  std::vector<double> p = r;

  const double b_norm = std::sqrt(dot(b, b));
  double rr = dot(r, r);
  CgResult result;
  for (int it = 0; it < max_iters; ++it) {
    spmv(a, p, ap);
    const double alpha = rr / dot(p, ap);
    axpy(alpha, p, x);
    axpy(-alpha, ap, r);
    const double rr_new = dot(r, r);
    ++result.iterations;
    result.final_residual_norm = std::sqrt(rr_new) / (b_norm > 0.0 ? b_norm : 1.0);
    if (result.final_residual_norm < tol) {
      result.converged = true;
      return result;
    }
    const double beta = rr_new / rr;
    for (std::size_t i = 0; i < p.size(); ++i) p[i] = r[i] + beta * p[i];
    rr = rr_new;
  }
  return result;
}

CgResult preconditioned_cg(const CsrMatrix& a, const std::vector<double>& b,
                           std::vector<double>& x, int max_iters, double tol) {
  if (b.size() != a.rows || x.size() != a.rows) {
    throw std::invalid_argument("preconditioned_cg: vector size mismatch");
  }
  // Extract the inverse diagonal.
  std::vector<double> inv_diag(a.rows, 0.0);
  for (std::uint64_t row = 0; row < a.rows; ++row) {
    for (std::uint64_t k = a.row_offsets[row]; k < a.row_offsets[row + 1]; ++k) {
      if (a.cols[k] == row) {
        if (a.vals[k] == 0.0) {
          throw std::invalid_argument("preconditioned_cg: zero diagonal entry");
        }
        inv_diag[row] = 1.0 / a.vals[k];
        break;
      }
    }
  }

  std::vector<double> r = b;
  std::vector<double> ap(a.rows, 0.0);
  spmv(a, x, ap);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] -= ap[i];
  std::vector<double> z(a.rows);
  for (std::size_t i = 0; i < z.size(); ++i) z[i] = inv_diag[i] * r[i];
  std::vector<double> p = z;

  const double b_norm = std::sqrt(dot(b, b));
  double rz = dot(r, z);
  CgResult result;
  for (int it = 0; it < max_iters; ++it) {
    spmv(a, p, ap);
    const double alpha = rz / dot(p, ap);
    axpy(alpha, p, x);
    axpy(-alpha, ap, r);
    ++result.iterations;
    result.final_residual_norm = std::sqrt(dot(r, r)) / (b_norm > 0.0 ? b_norm : 1.0);
    if (result.final_residual_norm < tol) {
      result.converged = true;
      return result;
    }
    for (std::size_t i = 0; i < z.size(); ++i) z[i] = inv_diag[i] * r[i];
    const double rz_new = dot(r, z);
    const double beta = rz_new / rz;
    for (std::size_t i = 0; i < p.size(); ++i) p[i] = z[i] + beta * p[i];
    rz = rz_new;
  }
  return result;
}

MiniFe::MiniFe(std::uint32_t nx, int cg_iters) : nx_(nx), cg_iters_(cg_iters) {
  if (nx_ < 4) throw std::invalid_argument("MiniFe: nx too small");
  if (cg_iters_ < 1) throw std::invalid_argument("MiniFe: need >= 1 CG iteration");
}

MiniFe MiniFe::from_footprint(std::uint64_t bytes) {
  // ~332 B of matrix per row (27 x (8B value + 4B column) + 8B offset).
  const double rows = static_cast<double>(bytes) / 332.0;
  const auto nx = static_cast<std::uint32_t>(std::cbrt(rows));
  return MiniFe(std::max<std::uint32_t>(nx, 4));
}

std::uint64_t MiniFe::rows() const {
  return static_cast<std::uint64_t>(nx_) * nx_ * nx_;
}

std::uint64_t MiniFe::matrix_bytes() const {
  // CSR: 27 nnz/row x (8B value + 4B col index) + 8B row offset.
  return rows() * (27 * 12 + 8);
}

std::uint64_t MiniFe::vector_bytes() const {
  // CG working vectors: x, b, r, p, Ap — 5 doubles per row (plus transient).
  return rows() * 5 * sizeof(double);
}

std::uint64_t MiniFe::footprint_bytes() const { return matrix_bytes() + vector_bytes(); }

const WorkloadInfo& MiniFe::info() const {
  static const WorkloadInfo kInfo{
      .name = "MiniFE",
      .type = "Scientific",
      .access_pattern = "Sequential",
      .max_scale_bytes = 30ull * 1000 * 1000 * 1000,  // Table I: 30 GB
      .metric_name = "CG MFLOPS",
  };
  return kInfo;
}

trace::AccessProfile MiniFe::profile() const {
  trace::AccessProfile p("minife-cg");
  p.set_resident_bytes(footprint_bytes());
  const double nrows = static_cast<double>(rows());
  const double iters = static_cast<double>(cg_iters_);

  // SpMV streams the matrix once per iteration. The x gather is banded
  // (27-point stencil: three nx^2 planes stay L2-resident), so it costs one
  // streaming read of x, not random traffic. Short 27-entry rows restart the
  // prefetch train constantly: per-thread MLP is below the streaming ideal
  // (calibrated to the paper's ~3x MiniFE speedup on HBM).
  trace::AccessPhase spmv_phase;
  spmv_phase.name = "spmv";
  spmv_phase.pattern = trace::Pattern::Sequential;
  spmv_phase.footprint_bytes = matrix_bytes();
  spmv_phase.logical_bytes = iters * nrows * (27.0 * 12.0 + 8.0 + 16.0);  // A + x + y
  spmv_phase.sweeps = iters;
  spmv_phase.write_fraction = 0.03;  // y store
  spmv_phase.flops = iters * nrows * 54.0;  // 2 flops per nnz
  spmv_phase.mlp_override = 9.3;
  p.add(spmv_phase);

  // Vector kernels: 2 dots (2 reads each) + 3 axpy-like updates (2R+1W)
  // per iteration over the 5 working vectors.
  trace::AccessPhase vec_phase;
  vec_phase.name = "dots+axpys";
  vec_phase.pattern = trace::Pattern::Sequential;
  vec_phase.footprint_bytes = vector_bytes();
  vec_phase.logical_bytes = iters * nrows * 8.0 * 13.0;
  vec_phase.sweeps = iters * 2.6;  // 13 vector passes over 5 vectors
  vec_phase.write_fraction = 0.23;  // 3 of 13 passes are stores
  vec_phase.flops = iters * nrows * 10.0;
  p.add(vec_phase);
  return p;
}

double MiniFe::metric(const RunResult& result) const {
  if (!result.feasible || result.seconds <= 0.0) return 0.0;
  const double flops =
      static_cast<double>(cg_iters_) * static_cast<double>(rows()) * (54.0 + 10.0);
  return flops / (result.seconds * 1e6);
}

void MiniFe::verify() const {
  // Real assembly + CG at a reduced brick; the operator is strictly
  // diagonally dominant so CG must converge, and A*ones has a closed form.
  const std::uint32_t nx = 12;
  const CsrMatrix a = assemble_27pt(nx, nx, nx);
  const std::uint64_t n = a.rows;

  // Row sums: diag (neighbours+1) plus neighbours * (-1) = 1 for every row.
  std::vector<double> ones(n, 1.0), row_sums(n, 0.0);
  spmv(a, ones, row_sums);
  for (std::uint64_t i = 0; i < n; ++i) {
    if (std::abs(row_sums[i] - 1.0) > 1e-12) {
      throw Error::internal("minife/verify", "MiniFe::verify: stencil row-sum check failed");
    }
  }

  // Solve A x = A*ones; solution must be ones.
  std::vector<double> b(n, 1.0);
  std::vector<double> x(n, 0.0);
  const CgResult cg = conjugate_gradient(a, b, x, 500, 1e-10);
  if (!cg.converged) {
    throw Error::internal("minife/verify", "MiniFe::verify: CG did not converge");
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    if (std::abs(x[i] - 1.0) > 1e-6) {
      throw Error::internal("minife/verify", "MiniFe::verify: CG solution wrong");
    }
  }
}

}  // namespace knl::workloads
