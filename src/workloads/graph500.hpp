// Graph500 (paper Table I, Fig. 4d, Fig. 6c): BFS over a Kronecker graph —
// the reference benchmark's kernels re-implemented: R-MAT edge generation
// (A=0.57, B=C=0.19), CSR construction, level-synchronous top-down BFS, BFS
// tree validation, and the harmonic-mean-TEPS figure of merit.
#pragma once

#include <cstdint>
#include <vector>

#include "workloads/workload.hpp"

namespace knl::workloads {

struct Edge {
  std::uint64_t src;
  std::uint64_t dst;
};

/// Kronecker (R-MAT) edge list: 2^scale vertices, edgefactor*2^scale edges.
[[nodiscard]] std::vector<Edge> generate_kronecker(int scale, int edgefactor,
                                                   std::uint64_t seed);

/// Undirected CSR built from an edge list (both directions inserted;
/// self-loops dropped, multi-edges kept as the reference does).
struct CsrGraph {
  std::uint64_t num_vertices = 0;
  std::vector<std::uint64_t> offsets;  // num_vertices + 1
  std::vector<std::uint64_t> targets;

  [[nodiscard]] std::uint64_t num_directed_edges() const { return targets.size(); }
};

[[nodiscard]] CsrGraph build_csr(std::uint64_t num_vertices, const std::vector<Edge>& edges);

/// Level-synchronous BFS from `root`; returns the parent array
/// (parent[root] == root; unreached == UINT64_MAX).
[[nodiscard]] std::vector<std::uint64_t> bfs(const CsrGraph& g, std::uint64_t root);

/// Graph500-style validation of a BFS parent tree against the graph and
/// edge list. Returns true if the tree is consistent.
[[nodiscard]] bool validate_bfs(const CsrGraph& g, std::uint64_t root,
                                const std::vector<std::uint64_t>& parent);

/// Direction-optimizing BFS (Beamer et al., used by tuned Graph500 codes):
/// top-down while the frontier is small, switching to bottom-up — where
/// unvisited vertices scan for a frontier parent — when the frontier's
/// edge count exceeds |E|/alpha. Produces a valid (possibly different)
/// parent tree with identical reachability.
[[nodiscard]] std::vector<std::uint64_t> bfs_direction_optimizing(const CsrGraph& g,
                                                                  std::uint64_t root,
                                                                  int alpha = 14);

class Graph500 final : public Workload {
 public:
  explicit Graph500(int scale, int edgefactor = 16, int num_roots = 64);

  /// Pick the scale whose CSR footprint is ~`bytes` (the paper's axis).
  [[nodiscard]] static Graph500 from_footprint(std::uint64_t bytes);

  [[nodiscard]] const WorkloadInfo& info() const override;
  [[nodiscard]] std::uint64_t footprint_bytes() const override;
  [[nodiscard]] trace::AccessProfile profile() const override;

  /// Harmonic-mean TEPS over the configured BFS roots.
  [[nodiscard]] double metric(const RunResult& result) const override;

  void verify() const override;

  [[nodiscard]] std::uint64_t num_vertices() const { return 1ull << scale_; }
  [[nodiscard]] std::uint64_t num_edges() const {
    return static_cast<std::uint64_t>(edgefactor_) * num_vertices();
  }

 private:
  int scale_;
  int edgefactor_;
  int num_roots_;
};

}  // namespace knl::workloads
