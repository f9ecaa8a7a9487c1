// XSBench (paper Table I, Fig. 4e, Fig. 6d): the macroscopic cross-section
// lookup kernel isolated from OpenMC Monte Carlo neutron transport.
//
// Data model (the reference's unionized energy grid):
//   - nuclide grids: per nuclide, `gridpoints` sorted energies with 5
//     cross-section channels each;
//   - unionized grid: all nuclide energies merged/sorted, each entry holding
//     an index into every nuclide's grid (the n_nuclides * 4B index row that
//     dominates the footprint).
// A lookup binary-searches the unionized grid (dependent chain), then for
// each nuclide of the sampled material reads its index entry and two grid
// points, interpolating 5 channels — random reads with small granules.
#pragma once

#include <utility>
#include <cstdint>
#include <vector>

#include "workloads/workload.hpp"

namespace knl::workloads {

/// In-memory cross-section data at *test* scale (verify/unit tests build
/// small instances; the paper-scale instance exists only as a profile).
struct XsData {
  int n_nuclides = 0;
  int gridpoints = 0;                 // per nuclide
  std::vector<double> nuclide_energy;  // [nuclide][gridpoint]
  std::vector<double> nuclide_xs;      // [nuclide][gridpoint][5]
  std::vector<double> union_energy;    // [n_union]
  std::vector<std::int32_t> union_index;  // [n_union][nuclide]

  [[nodiscard]] std::int64_t n_union() const {
    return static_cast<std::int64_t>(union_energy.size());
  }
};

[[nodiscard]] XsData build_xs_data(int n_nuclides, int gridpoints, std::uint64_t seed);

/// Macroscopic XS for energy `e` over the nuclides listed in `material`
/// (indices + densities), using the unionized grid. Writes 5 channels.
void lookup_macro_xs(const XsData& data, double e,
                     const std::vector<std::pair<int, double>>& material,
                     double out_xs[5]);

/// Oracle: same lookup via per-nuclide binary search (no unionized grid).
void lookup_macro_xs_direct(const XsData& data, double e,
                            const std::vector<std::pair<int, double>>& material,
                            double out_xs[5]);

/// XSBench-style material set: 12 materials with very uneven nuclide
/// counts (fuel dominates, like the reference's H-M benchmark), sampled
/// with the reference's lookup probabilities.
struct MaterialSet {
  std::vector<std::vector<std::pair<int, double>>> materials;  // 12 entries
  std::vector<double> probabilities;                           // sums to 1
};

[[nodiscard]] MaterialSet build_materials(int n_nuclides, std::uint64_t seed);

/// Sample a material index from u in [0,1).
[[nodiscard]] int sample_material(const MaterialSet& set, double u);

/// Run `count` full lookups (random energy + sampled material) against the
/// unionized grid; returns a checksum of the accumulated cross sections
/// (the reference's verification hash, simplified).
[[nodiscard]] double run_lookups(const XsData& data, const MaterialSet& set,
                                 std::uint64_t count, std::uint64_t seed);

class XsBench final : public Workload {
 public:
  /// Paper setup: 355 nuclides ("large"), `gridpoints` per nuclide swept via
  /// the -g option, 15M lookups, ~40 nuclides per average material lookup.
  explicit XsBench(int gridpoints, int n_nuclides = 355,
                   std::uint64_t lookups = 15'000'000, int avg_material_nuclides = 40);

  [[nodiscard]] static XsBench from_footprint(std::uint64_t bytes);

  [[nodiscard]] const WorkloadInfo& info() const override;
  [[nodiscard]] std::uint64_t footprint_bytes() const override;
  [[nodiscard]] trace::AccessProfile profile() const override;

  /// Lookups per second.
  [[nodiscard]] double metric(const RunResult& result) const override;

  void verify() const override;

  [[nodiscard]] std::uint64_t n_union() const {
    return static_cast<std::uint64_t>(n_nuclides_) * static_cast<std::uint64_t>(gridpoints_);
  }

 private:
  int gridpoints_;
  int n_nuclides_;
  std::uint64_t lookups_;
  int avg_material_nuclides_;
};

}  // namespace knl::workloads
