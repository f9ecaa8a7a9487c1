#include "workloads/xsbench.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <stdexcept>

#include "core/fault/error.hpp"
#include "core/types.hpp"

namespace knl::workloads {

XsData build_xs_data(int n_nuclides, int gridpoints, std::uint64_t seed) {
  if (n_nuclides < 1 || gridpoints < 2) {
    throw std::invalid_argument("build_xs_data: need >= 1 nuclide, >= 2 gridpoints");
  }
  XsData data;
  data.n_nuclides = n_nuclides;
  data.gridpoints = gridpoints;

  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(0.0, 1.0);

  const std::size_t ng = static_cast<std::size_t>(n_nuclides) *
                         static_cast<std::size_t>(gridpoints);
  data.nuclide_energy.resize(ng);
  data.nuclide_xs.resize(ng * 5);
  for (int n = 0; n < n_nuclides; ++n) {
    // Sorted random energies in (0,1) per nuclide.
    const std::size_t base = static_cast<std::size_t>(n) * static_cast<std::size_t>(gridpoints);
    for (int g = 0; g < gridpoints; ++g) data.nuclide_energy[base + static_cast<std::size_t>(g)] = uni(rng);
    std::sort(data.nuclide_energy.begin() + static_cast<std::ptrdiff_t>(base),
              data.nuclide_energy.begin() + static_cast<std::ptrdiff_t>(base + static_cast<std::size_t>(gridpoints)));
    for (int g = 0; g < gridpoints; ++g) {
      for (int ch = 0; ch < 5; ++ch) {
        data.nuclide_xs[(base + static_cast<std::size_t>(g)) * 5 + static_cast<std::size_t>(ch)] = uni(rng);
      }
    }
  }

  // Unionized grid: merge-sort all energies, then for each union entry store
  // the index of the last nuclide gridpoint <= that energy, per nuclide.
  data.union_energy = data.nuclide_energy;
  std::sort(data.union_energy.begin(), data.union_energy.end());
  const std::size_t nu = data.union_energy.size();
  data.union_index.resize(nu * static_cast<std::size_t>(n_nuclides));
  for (int n = 0; n < n_nuclides; ++n) {
    const std::size_t base = static_cast<std::size_t>(n) * static_cast<std::size_t>(gridpoints);
    for (std::size_t u = 0; u < nu; ++u) {
      const auto begin = data.nuclide_energy.begin() + static_cast<std::ptrdiff_t>(base);
      const auto end = begin + gridpoints;
      auto it = std::upper_bound(begin, end, data.union_energy[u]);
      std::int32_t idx = static_cast<std::int32_t>(std::distance(begin, it)) - 1;
      idx = std::clamp(idx, 0, gridpoints - 2);
      data.union_index[u * static_cast<std::size_t>(n_nuclides) + static_cast<std::size_t>(n)] = idx;
    }
  }
  return data;
}

namespace {

void interpolate(const XsData& data, int nuclide, std::int32_t lo_idx, double e,
                 double density, double out_xs[5]) {
  const std::size_t base =
      (static_cast<std::size_t>(nuclide) * static_cast<std::size_t>(data.gridpoints) +
       static_cast<std::size_t>(lo_idx));
  const double e_lo = data.nuclide_energy[base];
  const double e_hi = data.nuclide_energy[base + 1];
  const double f = e_hi > e_lo ? std::clamp((e - e_lo) / (e_hi - e_lo), 0.0, 1.0) : 0.0;
  for (int ch = 0; ch < 5; ++ch) {
    const double lo = data.nuclide_xs[base * 5 + static_cast<std::size_t>(ch)];
    const double hi = data.nuclide_xs[(base + 1) * 5 + static_cast<std::size_t>(ch)];
    out_xs[ch] += density * (lo + f * (hi - lo));
  }
}

}  // namespace

void lookup_macro_xs(const XsData& data, double e,
                     const std::vector<std::pair<int, double>>& material,
                     double out_xs[5]) {
  std::fill(out_xs, out_xs + 5, 0.0);
  // Binary search on the unionized energy grid (the dependent chain).
  auto it = std::upper_bound(data.union_energy.begin(), data.union_energy.end(), e);
  std::int64_t u = std::distance(data.union_energy.begin(), it) - 1;
  u = std::clamp<std::int64_t>(u, 0, data.n_union() - 1);

  for (const auto& [nuclide, density] : material) {
    if (nuclide < 0 || nuclide >= data.n_nuclides) {
      throw std::invalid_argument("lookup_macro_xs: nuclide out of range");
    }
    const std::int32_t idx =
        data.union_index[static_cast<std::size_t>(u) * static_cast<std::size_t>(data.n_nuclides) +
                         static_cast<std::size_t>(nuclide)];
    interpolate(data, nuclide, idx, e, density, out_xs);
  }
}

void lookup_macro_xs_direct(const XsData& data, double e,
                            const std::vector<std::pair<int, double>>& material,
                            double out_xs[5]) {
  std::fill(out_xs, out_xs + 5, 0.0);
  for (const auto& [nuclide, density] : material) {
    const std::size_t base = static_cast<std::size_t>(nuclide) *
                             static_cast<std::size_t>(data.gridpoints);
    const auto begin = data.nuclide_energy.begin() + static_cast<std::ptrdiff_t>(base);
    const auto end = begin + data.gridpoints;
    auto it = std::upper_bound(begin, end, e);
    std::int32_t idx = static_cast<std::int32_t>(std::distance(begin, it)) - 1;
    idx = std::clamp(idx, 0, data.gridpoints - 2);
    interpolate(data, nuclide, idx, e, density, out_xs);
  }
}

MaterialSet build_materials(int n_nuclides, std::uint64_t seed) {
  if (n_nuclides < 12) {
    throw std::invalid_argument("build_materials: need >= 12 nuclides");
  }
  // Reference XSBench (H-M): material 0 (fuel) holds most nuclides; the
  // other 11 are small. Nuclide counts scaled to n_nuclides; lookup
  // probabilities follow the reference's distribution (fuel-heavy).
  const double count_fractions[12] = {0.90, 0.14, 0.10, 0.06, 0.05, 0.04,
                                      0.03, 0.03, 0.02, 0.02, 0.02, 0.01};
  const double probs[12] = {0.140, 0.052, 0.275, 0.134, 0.154, 0.064,
                            0.066, 0.055, 0.008, 0.015, 0.025, 0.012};
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> density(0.1, 10.0);

  MaterialSet set;
  set.materials.resize(12);
  double prob_sum = 0.0;
  for (int m = 0; m < 12; ++m) {
    const int count = std::max(1, static_cast<int>(count_fractions[m] * n_nuclides));
    // Sample distinct nuclides for the material.
    std::vector<int> ids(static_cast<std::size_t>(n_nuclides));
    std::iota(ids.begin(), ids.end(), 0);
    std::shuffle(ids.begin(), ids.end(), rng);
    for (int i = 0; i < count; ++i) {
      set.materials[static_cast<std::size_t>(m)].emplace_back(
          ids[static_cast<std::size_t>(i)], density(rng));
    }
    set.probabilities.push_back(probs[m]);
    prob_sum += probs[m];
  }
  for (double& p : set.probabilities) p /= prob_sum;
  return set;
}

int sample_material(const MaterialSet& set, double u) {
  if (u < 0.0 || u >= 1.0) throw std::invalid_argument("sample_material: u outside [0,1)");
  double acc = 0.0;
  for (std::size_t m = 0; m < set.probabilities.size(); ++m) {
    acc += set.probabilities[m];
    if (u < acc) return static_cast<int>(m);
  }
  return static_cast<int>(set.probabilities.size()) - 1;
}

double run_lookups(const XsData& data, const MaterialSet& set, std::uint64_t count,
                   std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  double checksum = 0.0;
  double xs[5];
  for (std::uint64_t i = 0; i < count; ++i) {
    const double e = uni(rng);
    const int m = sample_material(set, uni(rng));
    lookup_macro_xs(data, e, set.materials[static_cast<std::size_t>(m)], xs);
    checksum += xs[0] + xs[4];
  }
  return checksum;
}

XsBench::XsBench(int gridpoints, int n_nuclides, std::uint64_t lookups,
                 int avg_material_nuclides)
    : gridpoints_(gridpoints), n_nuclides_(n_nuclides), lookups_(lookups),
      avg_material_nuclides_(avg_material_nuclides) {
  if (gridpoints_ < 2) throw std::invalid_argument("XsBench: gridpoints too small");
  if (n_nuclides_ < 1) throw std::invalid_argument("XsBench: need nuclides");
  if (lookups_ < 1) throw std::invalid_argument("XsBench: need lookups");
  if (avg_material_nuclides_ < 1 || avg_material_nuclides_ > n_nuclides_) {
    throw std::invalid_argument("XsBench: bad material size");
  }
}

std::uint64_t XsBench::footprint_bytes() const {
  const std::uint64_t nu = n_union();
  // union energies + index rows dominate; nuclide grids add 48 B/point.
  return nu * 8 + nu * static_cast<std::uint64_t>(n_nuclides_) * 4 +
         nu * (8 + 5 * 8);
}

XsBench XsBench::from_footprint(std::uint64_t bytes) {
  // bytes ~ 355*g * (8 + 355*4 + 48) = 355*g*1476 — invert for g.
  const double per_g = 355.0 * (8.0 + 355.0 * 4.0 + 48.0);
  const int g = std::max(2, static_cast<int>(static_cast<double>(bytes) / per_g));
  return XsBench(g);
}

const WorkloadInfo& XsBench::info() const {
  static const WorkloadInfo kInfo{
      .name = "XSBench",
      .type = "Scientific",
      .access_pattern = "Random",
      .max_scale_bytes = 90ull * 1000 * 1000 * 1000,  // Table I: 90 GB
      .metric_name = "Lookups/s",
  };
  return kInfo;
}

trace::AccessProfile XsBench::profile() const {
  trace::AccessProfile p("xsbench");
  p.set_resident_bytes(footprint_bytes());
  const double nl = static_cast<double>(lookups_);
  const double search_depth = std::ceil(std::log2(static_cast<double>(n_union())));
  const double mat = static_cast<double>(avg_material_nuclides_);

  // Unionized-grid binary search: a dependent chain of random reads; the
  // out-of-order window overlaps a little of the next lookup's chain.
  trace::AccessPhase search;
  search.name = "union-binary-search";
  search.pattern = trace::Pattern::Random;
  search.footprint_bytes = n_union() * 8;
  search.logical_bytes = nl * search_depth * 8.0;
  search.granule_bytes = 8;
  search.mlp_override = 1.5;
  p.add(search);

  // Per-nuclide gather: index entry (4 B) + two grid points (energy pairs +
  // 5 channels each) — independent random reads across the large arrays.
  trace::AccessPhase gather;
  gather.name = "nuclide-gather";
  gather.pattern = trace::Pattern::Random;
  gather.footprint_bytes = footprint_bytes();
  gather.logical_bytes = nl * mat * (4.0 + 2.0 * 48.0);
  gather.granule_bytes = 32;
  gather.flops = nl * mat * 5.0 * 3.0;  // interpolation FMAs
  p.add(gather);
  return p;
}

double XsBench::metric(const RunResult& result) const {
  if (!result.feasible || result.seconds <= 0.0) return 0.0;
  return static_cast<double>(lookups_) / result.seconds;
}

void XsBench::verify() const {
  // Unionized-grid lookups must match the direct per-nuclide binary search.
  const XsData data = build_xs_data(/*n_nuclides=*/20, /*gridpoints=*/200, /*seed=*/5);
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> uni(0.01, 0.99);
  std::uniform_int_distribution<int> pick(0, data.n_nuclides - 1);

  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::pair<int, double>> material;
    const int n_mat = 1 + trial % 8;
    for (int i = 0; i < n_mat; ++i) material.emplace_back(pick(rng), uni(rng));
    const double e = uni(rng);
    double a[5], b[5];
    lookup_macro_xs(data, e, material, a);
    lookup_macro_xs_direct(data, e, material, b);
    for (int ch = 0; ch < 5; ++ch) {
      if (std::abs(a[ch] - b[ch]) > 1e-9) {
        throw Error::internal(
            "xsbench/verify",
            "XsBench::verify: unionized lookup diverges from oracle");
      }
    }
  }
}

}  // namespace knl::workloads
