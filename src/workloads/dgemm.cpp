#include "workloads/dgemm.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>

#include "core/fault/error.hpp"
#include "core/types.hpp"

namespace knl::workloads {

Dgemm::Dgemm(std::uint64_t n) : n_(n) {
  if (n_ < 16) throw std::invalid_argument("Dgemm: n too small");
}

Dgemm Dgemm::from_footprint(std::uint64_t bytes) {
  const auto n = static_cast<std::uint64_t>(
      std::sqrt(static_cast<double>(bytes) / (3.0 * sizeof(double))));
  return Dgemm(std::max<std::uint64_t>(n, 16));
}

const WorkloadInfo& Dgemm::info() const {
  static const WorkloadInfo kInfo{
      .name = "DGEMM",
      .type = "Scientific",
      .access_pattern = "Sequential",
      .max_scale_bytes = 24ull * 1000 * 1000 * 1000,  // Table I: 24 GB
      .metric_name = "GFLOPS",
  };
  return kInfo;
}

std::uint64_t Dgemm::footprint_bytes() const { return 3 * n_ * n_ * sizeof(double); }

double Dgemm::effective_flops_per_byte() const {
  // Calibrated traffic model for an MKL-class blocked DGEMM at one thread
  // per core: effective arithmetic intensity falls from ~5.6 flops/byte at
  // a 0.1 GB footprint to ~3.5 at 6 GB as packing traffic, TLB pressure and
  // panel re-reads grow with n (log-linear interpolation, clamped).
  const double fp_gb = static_cast<double>(footprint_bytes()) / GB;
  const double lo_gb = 0.1, hi_gb = 6.0;
  const double lo_ai = 5.6, hi_ai = 3.5;
  const double t = std::clamp(std::log(fp_gb / lo_gb) / std::log(hi_gb / lo_gb), 0.0, 1.0);
  return lo_ai + t * (hi_ai - lo_ai);
}

trace::AccessProfile Dgemm::profile() const {
  trace::AccessProfile p("dgemm");
  const std::uint64_t fp = footprint_bytes();
  p.set_resident_bytes(fp);

  const double nd = static_cast<double>(n_);
  const double flops = 2.0 * nd * nd * nd;

  trace::AccessPhase kernel;
  kernel.name = "blocked-multiply";
  kernel.pattern = trace::Pattern::Sequential;
  kernel.footprint_bytes = fp;
  kernel.flops = flops;
  kernel.logical_bytes = flops / effective_flops_per_byte();
  kernel.sweeps = std::max(1.0, kernel.logical_bytes / static_cast<double>(fp));
  kernel.write_fraction = 0.1;  // C panel stores amid mostly-read panel traffic
  kernel.compute_efficiency = 0.45;  // measured MKL fraction of peak at paper scale
  p.add(kernel);
  return p;
}

double Dgemm::metric(const RunResult& result) const {
  if (!result.feasible || result.seconds <= 0.0) return 0.0;
  const double nd = static_cast<double>(n_);
  return 2.0 * nd * nd * nd / (result.seconds * 1e9);
}

void Dgemm::multiply_blocked(const std::vector<double>& a, const std::vector<double>& b,
                             std::vector<double>& c, std::size_t n, std::size_t block) {
  if (a.size() != n * n || b.size() != n * n || c.size() != n * n) {
    throw std::invalid_argument("Dgemm::multiply_blocked: bad dimensions");
  }
  if (block == 0) throw std::invalid_argument("Dgemm::multiply_blocked: zero block");
  std::fill(c.begin(), c.end(), 0.0);
  for (std::size_t ii = 0; ii < n; ii += block) {
    const std::size_t iend = std::min(ii + block, n);
    for (std::size_t kk = 0; kk < n; kk += block) {
      const std::size_t kend = std::min(kk + block, n);
      for (std::size_t jj = 0; jj < n; jj += block) {
        const std::size_t jend = std::min(jj + block, n);
        // i-k-j order keeps the innermost loop unit-stride in both B and C.
        for (std::size_t i = ii; i < iend; ++i) {
          for (std::size_t k = kk; k < kend; ++k) {
            const double aik = a[i * n + k];
            for (std::size_t j = jj; j < jend; ++j) {
              c[i * n + j] += aik * b[k * n + j];
            }
          }
        }
      }
    }
  }
}

void Dgemm::multiply_naive(const std::vector<double>& a, const std::vector<double>& b,
                           std::vector<double>& c, std::size_t n) {
  if (a.size() != n * n || b.size() != n * n || c.size() != n * n) {
    throw std::invalid_argument("Dgemm::multiply_naive: bad dimensions");
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < n; ++k) acc += a[i * n + k] * b[k * n + j];
      c[i * n + j] = acc;
    }
  }
}

void Dgemm::verify() const {
  // Blocked kernel vs naive reference on a reduced matrix.
  const std::size_t n = 96;
  std::vector<double> a(n * n), b(n * n), c_blocked(n * n), c_naive(n * n);
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (auto& x : a) x = dist(rng);
  for (auto& x : b) x = dist(rng);
  multiply_blocked(a, b, c_blocked, n, 32);
  multiply_naive(a, b, c_naive, n);
  for (std::size_t i = 0; i < n * n; ++i) {
    if (std::abs(c_blocked[i] - c_naive[i]) > 1e-9 * n) {
      throw Error::internal("dgemm/verify",
                            "Dgemm::verify: blocked result diverges from reference");
    }
  }
}

}  // namespace knl::workloads
