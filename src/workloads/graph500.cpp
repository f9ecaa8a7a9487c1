#include "workloads/graph500.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <stdexcept>

#include "core/fault/error.hpp"
#include "core/types.hpp"

namespace knl::workloads {

namespace {
constexpr std::uint64_t kUnreached = std::numeric_limits<std::uint64_t>::max();
}  // namespace

std::vector<Edge> generate_kronecker(int scale, int edgefactor, std::uint64_t seed) {
  if (scale < 1 || scale > 40) throw std::invalid_argument("generate_kronecker: bad scale");
  if (edgefactor < 1) throw std::invalid_argument("generate_kronecker: bad edgefactor");

  // Graph500 R-MAT parameters.
  const double a = 0.57, b = 0.19, c = 0.19;  // d = 0.05
  const std::uint64_t n_edges = static_cast<std::uint64_t>(edgefactor) << scale;

  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n_edges));

  for (std::uint64_t e = 0; e < n_edges; ++e) {
    std::uint64_t src = 0, dst = 0;
    for (int bit = 0; bit < scale; ++bit) {
      const double r = uni(rng);
      // Quadrant choice per Kronecker level, with the reference generator's
      // per-level noise left out (it does not change the degree profile).
      if (r < a) {
        // top-left: no bits set
      } else if (r < a + b) {
        dst |= 1ull << bit;
      } else if (r < a + b + c) {
        src |= 1ull << bit;
      } else {
        src |= 1ull << bit;
        dst |= 1ull << bit;
      }
    }
    edges.push_back(Edge{src, dst});
  }
  return edges;
}

CsrGraph build_csr(std::uint64_t num_vertices, const std::vector<Edge>& edges) {
  CsrGraph g;
  g.num_vertices = num_vertices;
  g.offsets.assign(num_vertices + 1, 0);

  auto check = [&](const Edge& e) {
    if (e.src >= num_vertices || e.dst >= num_vertices) {
      throw std::invalid_argument("build_csr: edge endpoint out of range");
    }
  };

  // Two-pass counting sort; both directions, self-loops dropped (as the
  // reference kernel 1 does).
  for (const Edge& e : edges) {
    check(e);
    if (e.src == e.dst) continue;
    ++g.offsets[e.src + 1];
    ++g.offsets[e.dst + 1];
  }
  for (std::uint64_t v = 0; v < num_vertices; ++v) g.offsets[v + 1] += g.offsets[v];

  g.targets.assign(g.offsets[num_vertices], 0);
  std::vector<std::uint64_t> cursor(g.offsets.begin(), g.offsets.end() - 1);
  for (const Edge& e : edges) {
    if (e.src == e.dst) continue;
    g.targets[cursor[e.src]++] = e.dst;
    g.targets[cursor[e.dst]++] = e.src;
  }
  return g;
}

std::vector<std::uint64_t> bfs(const CsrGraph& g, std::uint64_t root) {
  if (root >= g.num_vertices) throw std::invalid_argument("bfs: root out of range");
  std::vector<std::uint64_t> parent(g.num_vertices, kUnreached);
  parent[root] = root;

  std::vector<std::uint64_t> frontier{root};
  std::vector<std::uint64_t> next;
  while (!frontier.empty()) {
    next.clear();
    for (const std::uint64_t u : frontier) {
      for (std::uint64_t k = g.offsets[u]; k < g.offsets[u + 1]; ++k) {
        const std::uint64_t v = g.targets[k];
        if (parent[v] == kUnreached) {
          parent[v] = u;
          next.push_back(v);
        }
      }
    }
    frontier.swap(next);
  }
  return parent;
}

std::vector<std::uint64_t> bfs_direction_optimizing(const CsrGraph& g,
                                                    std::uint64_t root, int alpha) {
  if (root >= g.num_vertices) {
    throw std::invalid_argument("bfs_direction_optimizing: root out of range");
  }
  if (alpha < 1) throw std::invalid_argument("bfs_direction_optimizing: alpha >= 1");

  std::vector<std::uint64_t> parent(g.num_vertices, kUnreached);
  parent[root] = root;
  std::vector<bool> in_frontier(g.num_vertices, false);
  in_frontier[root] = true;
  std::uint64_t frontier_count = 1;
  std::uint64_t frontier_edges = g.offsets[root + 1] - g.offsets[root];
  const std::uint64_t switch_threshold =
      g.num_directed_edges() / static_cast<std::uint64_t>(alpha) + 1;

  while (frontier_count > 0) {
    std::vector<bool> next(g.num_vertices, false);
    std::uint64_t next_count = 0;
    std::uint64_t next_edges = 0;

    if (frontier_edges > switch_threshold) {
      // Bottom-up: every unreached vertex looks for a parent in the
      // frontier; early exit on the first hit (the traffic saving that
      // motivates the optimization).
      for (std::uint64_t v = 0; v < g.num_vertices; ++v) {
        if (parent[v] != kUnreached) continue;
        for (std::uint64_t k = g.offsets[v]; k < g.offsets[v + 1]; ++k) {
          const std::uint64_t u = g.targets[k];
          if (in_frontier[u]) {
            parent[v] = u;
            next[v] = true;
            ++next_count;
            next_edges += g.offsets[v + 1] - g.offsets[v];
            break;
          }
        }
      }
    } else {
      // Top-down over the current frontier.
      for (std::uint64_t u = 0; u < g.num_vertices; ++u) {
        if (!in_frontier[u]) continue;
        for (std::uint64_t k = g.offsets[u]; k < g.offsets[u + 1]; ++k) {
          const std::uint64_t v = g.targets[k];
          if (parent[v] == kUnreached) {
            parent[v] = u;
            next[v] = true;
            ++next_count;
            next_edges += g.offsets[v + 1] - g.offsets[v];
          }
        }
      }
    }
    in_frontier.swap(next);
    frontier_count = next_count;
    frontier_edges = next_edges;
  }
  return parent;
}

bool validate_bfs(const CsrGraph& g, std::uint64_t root,
                  const std::vector<std::uint64_t>& parent) {
  if (parent.size() != g.num_vertices) return false;
  if (parent[root] != root) return false;

  // Compute depths by following parent pointers; every reached vertex must
  // reach the root without cycles, and each tree edge must exist in the
  // graph with depths differing by exactly one.
  std::vector<std::uint64_t> depth(g.num_vertices, kUnreached);
  depth[root] = 0;
  for (std::uint64_t v = 0; v < g.num_vertices; ++v) {
    if (parent[v] == kUnreached || depth[v] != kUnreached) continue;
    // Walk up, collecting the path.
    std::vector<std::uint64_t> path;
    std::uint64_t cur = v;
    while (depth[cur] == kUnreached) {
      path.push_back(cur);
      cur = parent[cur];
      if (cur == kUnreached || path.size() > g.num_vertices) return false;
    }
    std::uint64_t d = depth[cur];
    for (auto it = path.rbegin(); it != path.rend(); ++it) depth[*it] = ++d;
  }

  for (std::uint64_t v = 0; v < g.num_vertices; ++v) {
    if (parent[v] == kUnreached || v == root) continue;
    if (depth[v] != depth[parent[v]] + 1) return false;
    // Tree edge must exist in the CSR.
    bool found = false;
    for (std::uint64_t k = g.offsets[v]; k < g.offsets[v + 1]; ++k) {
      if (g.targets[k] == parent[v]) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

Graph500::Graph500(int scale, int edgefactor, int num_roots)
    : scale_(scale), edgefactor_(edgefactor), num_roots_(num_roots) {
  if (scale_ < 4 || scale_ > 40) throw std::invalid_argument("Graph500: bad scale");
  if (edgefactor_ < 1) throw std::invalid_argument("Graph500: bad edgefactor");
  if (num_roots_ < 1) throw std::invalid_argument("Graph500: bad root count");
}

Graph500 Graph500::from_footprint(std::uint64_t bytes) {
  // CSR + working arrays ~ 280 B per vertex at edgefactor 16; pick the
  // scale whose footprint is closest to the request.
  int best_scale = 4;
  double best_err = -1.0;
  for (int scale = 4; scale <= 40; ++scale) {
    const double fp = static_cast<double>(Graph500(scale).footprint_bytes());
    const double err = std::abs(std::log(fp / static_cast<double>(bytes)));
    if (best_err < 0.0 || err < best_err) {
      best_err = err;
      best_scale = scale;
    }
  }
  return Graph500(best_scale);
}

std::uint64_t Graph500::footprint_bytes() const {
  // offsets + directed targets + parent + frontier arrays.
  const std::uint64_t v = num_vertices();
  const std::uint64_t e2 = 2 * num_edges();
  return 8 * (v + 1) + 8 * e2 + 8 * v + 8 * v;
}

const WorkloadInfo& Graph500::info() const {
  static const WorkloadInfo kInfo{
      .name = "Graph500",
      .type = "Data analytics",
      .access_pattern = "Random",
      .max_scale_bytes = 35ull * 1000 * 1000 * 1000,  // Table I: 35 GB
      .metric_name = "TEPS",
  };
  return kInfo;
}

trace::AccessProfile Graph500::profile() const {
  trace::AccessProfile p("graph500-bfs");
  p.set_resident_bytes(footprint_bytes());
  const double v = static_cast<double>(num_vertices());
  const double e2 = 2.0 * static_cast<double>(num_edges());
  const double searches = static_cast<double>(num_roots_);

  // Adjacency scan: frontier vertices fetch their CSR rows in data-driven
  // order. Rows are short (avg 32 targets) and which row comes next depends
  // on the frontier pop, so the prefetcher cannot run ahead — line-granular
  // fetches with low per-thread MLP, not a prefetchable stream.
  trace::AccessPhase scan;
  scan.name = "adjacency-scan";
  scan.pattern = trace::Pattern::Random;
  scan.footprint_bytes = 8 * (num_vertices() + 1) + 8 * 2 * num_edges();
  scan.logical_bytes = searches * (e2 * 8.0 + v * 16.0);
  scan.granule_bytes = 64;  // full-line utilization within a row
  scan.mlp_override = 2.5;
  scan.smt_beta = 0.45;  // level barriers + frontier contention cap SMT gains
  p.add(scan);

  // Visited/parent updates: one random check per directed edge plus a
  // random write per newly-reached vertex — the latency-bound heart of BFS.
  // The check depends on the just-fetched adjacency entry (low MLP), and the
  // concurrent CSR stream flushes L2 continuously (hit override).
  trace::AccessPhase visit;
  visit.name = "visited-updates";
  visit.pattern = trace::Pattern::Random;
  visit.footprint_bytes = 16 * num_vertices();  // parent + frontier flags
  visit.logical_bytes = searches * (e2 * 8.0 + v * 8.0);
  visit.granule_bytes = 8;
  visit.write_fraction = 0.2;
  visit.mlp_override = 1.2;
  visit.l2_hit_override = 0.05;
  visit.smt_beta = 0.45;  // atomic parent updates serialize under SMT
  p.add(visit);
  return p;
}

double Graph500::metric(const RunResult& result) const {
  if (!result.feasible || result.seconds <= 0.0) return 0.0;
  // All simulated searches take the same modelled time, so the harmonic
  // mean TEPS equals edges / per-search time.
  const double per_search = result.seconds / static_cast<double>(num_roots_);
  return static_cast<double>(num_edges()) / per_search;
}

void Graph500::verify() const {
  // Real generator -> CSR -> BFS -> Graph500 validation at reduced scale.
  const int scale = 10;
  const auto edges = generate_kronecker(scale, 16, /*seed=*/12345);
  const CsrGraph g = build_csr(1ull << scale, edges);

  std::mt19937_64 rng(99);
  int checked = 0;
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t root = rng() % g.num_vertices;
    if (g.offsets[root + 1] == g.offsets[root]) continue;  // isolated vertex
    const auto parent = bfs(g, root);
    if (!validate_bfs(g, root, parent)) {
      throw Error::internal("graph500/verify",
                            "Graph500::verify: BFS tree failed validation");
    }
    ++checked;
  }
  if (checked == 0) {
    throw Error::internal("graph500/verify",
                          "Graph500::verify: no connected roots sampled");
  }
}

}  // namespace knl::workloads
