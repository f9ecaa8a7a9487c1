#include "repro/experiment.hpp"

#include <cmath>

namespace knl::repro {

namespace {

constexpr std::uint64_t gb(double x) { return static_cast<std::uint64_t>(x * 1e9); }

using Kind = ShapeCheck::Kind;

ShapeCheck ratio_at_least(std::string num, std::string den, double x, double threshold,
                          std::string description) {
  return ShapeCheck{Kind::RatioAtLeast, std::move(num), std::move(den), x, threshold,
                    std::move(description)};
}

ShapeCheck ratio_at_most(std::string num, std::string den, double x, double threshold,
                         std::string description) {
  return ShapeCheck{Kind::RatioAtMost, std::move(num), std::move(den), x, threshold,
                    std::move(description)};
}

ShapeCheck points_at_most(std::string series, double count, std::string description) {
  return ShapeCheck{Kind::PointCountAtMost, std::move(series), {}, 0.0, count,
                    std::move(description)};
}

ShapeCheck growth_at_least(std::string series, double threshold, std::string description) {
  return ShapeCheck{Kind::GrowthAtLeast, std::move(series), {}, 0.0, threshold,
                    std::move(description)};
}

ShapeCheck growth_at_most(std::string series, double threshold, std::string description) {
  return ShapeCheck{Kind::GrowthAtMost, std::move(series), {}, 0.0, threshold,
                    std::move(description)};
}

// ---------------------------------------------------------------------------
// The paper's sweep grids.
// ---------------------------------------------------------------------------
std::vector<std::uint64_t> fig2_sizes() {
  std::vector<std::uint64_t> sizes;
  for (double s = 2.0; s <= 40.0; s += 2.0) sizes.push_back(gb(s));
  return sizes;
}

std::vector<std::uint64_t> fig3_blocks() {
  std::vector<std::uint64_t> blocks;
  for (std::uint64_t b = 128ull * 1024; b <= (1ull << 30); b *= 2) blocks.push_back(b);
  return blocks;
}

std::vector<std::uint64_t> fig5_sizes() {
  std::vector<std::uint64_t> sizes;
  for (double s = 2.0; s <= 10.0; s += 2.0) sizes.push_back(gb(s));
  return sizes;
}

const std::vector<MemConfig> kAll{MemConfig::DRAM, MemConfig::HBM, MemConfig::CacheMode};
const std::vector<MemConfig> kFlatPair{MemConfig::DRAM, MemConfig::HBM};

std::vector<ExperimentSpec> build_registry() {
  std::vector<ExperimentSpec> specs;

  {
    ExperimentSpec s;
    s.id = "table1_apps";
    s.title = "Table I: List of Evaluated Applications";
    s.paper_shape =
        "DGEMM/MiniFE scientific-sequential; GUPS/Graph500 data-analytics-random; "
        "XSBench scientific-random; max scales 24/30/32/35/90 GB";
    s.kind = ExperimentKind::Table;
    specs.push_back(std::move(s));
  }

  {
    ExperimentSpec s;
    s.id = "table2_numa";
    s.title = "Table II: NUMA domain distances";
    s.paper_shape =
        "flat mode shows nodes 0 (96 GB) and 1 (16 GB) with distances 10/31; "
        "cache mode shows a single node 0 (96 GB)";
    s.kind = ExperimentKind::Table;
    specs.push_back(std::move(s));
  }

  {
    ExperimentSpec s;
    s.id = "fig2_stream";
    s.title = "Fig. 2: STREAM triad bandwidth vs size";
    s.x_label = "Size (GB)";
    s.y_label = "GB/s";
    s.paper_shape =
        "DRAM ~77 GB/s flat; HBM ~330 GB/s, stops past 16 GB; cache mode tracks HBM "
        "to ~8 GB (260 GB/s), drops to ~125 GB/s at 11.4 GB, below DRAM past ~24 GB";
    s.kind = ExperimentKind::SizeSweep;
    s.workload = "STREAM";
    s.sizes_bytes = fig2_sizes();
    s.configs = kAll;
    s.checks = {
        ratio_at_least("HBM", "DRAM", 6.0, 3.5,
                       "HBM/DDR bandwidth exceeds ~4x while the footprint fits"),
        ratio_at_least("Cache Mode", "HBM", 6.0, 0.85,
                       "cache mode tracks HBM while the footprint fits MCDRAM"),
        ratio_at_most("Cache Mode", "DRAM", 24.0, 1.0,
                      "cache mode falls below DRAM once conflict misses dominate"),
        points_at_most("HBM", 8, "HBM series stops past its 16 GB capacity"),
    };
    specs.push_back(std::move(s));
  }

  {
    ExperimentSpec s;
    s.id = "fig3_latency";
    s.title = "Fig. 3: dual random read latency vs block size";
    s.x_label = "Block (MiB)";
    s.y_label = "ns / access";
    s.paper_shape =
        "three tiers: ~10 ns below 1 MB (local L2), ~200 ns to 64 MB, rising past "
        "128 MB (TLB/page walk); DRAM 15-20% faster than HBM throughout";
    s.kind = ExperimentKind::Latency;
    s.sizes_bytes = fig3_blocks();
    s.checks = {
        ratio_at_least("HBM", "DRAM", 64.0, 1.05,
                       "HBM latency stays above DRAM (DRAM 15-20% faster)"),
        growth_at_least("DRAM", 10.0,
                        "latency climbs an order of magnitude from L2 tier to "
                        "page-walk tier"),
    };
    specs.push_back(std::move(s));
  }

  {
    ExperimentSpec s;
    s.id = "fig4a_dgemm";
    s.title = "Fig. 4a: DGEMM";
    s.x_label = "Array Size (GB)";
    s.y_label = "GFLOPS";
    s.paper_shape =
        "HBM best while it fits (no HBM bar at 24 GB); improvement grows ~1.4x at "
        "0.1 GB to ~2.2x at 6 GB; cache mode between HBM and DRAM";
    s.kind = ExperimentKind::SizeSweep;
    s.workload = "DGEMM";
    s.sizes_bytes = {gb(0.1), gb(0.4), gb(1.5), gb(6.0), gb(24.0)};
    s.configs = kAll;
    s.ratios = {{"HBM", "DRAM", "Improvement (x)"}};
    s.checks = {
        ratio_at_least("HBM", "DRAM", 0.1, 1.2,
                       "HBM already ahead at the smallest array"),
        ratio_at_least("HBM", "DRAM", 6.0, 1.9,
                       "HBM/DDR speedup grows past ~2x at large sizes"),
        points_at_most("HBM", 4, "no HBM measurement at 24 GB (exceeds capacity)"),
    };
    specs.push_back(std::move(s));
  }

  {
    ExperimentSpec s;
    s.id = "fig4b_minife";
    s.title = "Fig. 4b: MiniFE";
    s.x_label = "Matrix Size (GB)";
    s.y_label = "CG MFLOPS";
    s.paper_shape =
        "HBM ~3x DRAM while it fits; cache-mode speedup decays toward ~1.05x when "
        "the matrix is nearly twice HBM capacity (28.8 GB)";
    s.kind = ExperimentKind::SizeSweep;
    s.workload = "MiniFE";
    s.sizes_bytes = {gb(0.1), gb(0.9), gb(1.8), gb(3.6), gb(7.2), gb(14.4), gb(28.8)};
    s.configs = kAll;
    s.ratios = {{"HBM", "DRAM", "Speedup by HBM w.r.t. DRAM"},
                {"Cache Mode", "DRAM", "Speedup by Cache w.r.t. DRAM"}};
    s.checks = {
        ratio_at_least("HBM", "DRAM", 7.2, 2.5,
                       "HBM/DDR speedup ~3x for this bandwidth-bound app"),
        ratio_at_most("Cache Mode", "DRAM", 28.8, 1.4,
                      "cache-mode speedup decays once the matrix dwarfs MCDRAM"),
    };
    specs.push_back(std::move(s));
  }

  {
    ExperimentSpec s;
    s.id = "fig4c_gups";
    s.title = "Fig. 4c: GUPS";
    s.x_label = "Table Size (GiB)";
    s.y_label = "GUPS";
    s.paper_shape =
        "nearly flat; DRAM marginally best at every size (latency-bound, no benefit "
        "from HBM); HBM series stops past 16 GB";
    s.kind = ExperimentKind::SizeSweep;
    s.workload = "GUPS";
    s.sizes_bytes = [] {
      std::vector<std::uint64_t> sizes;
      for (std::uint64_t g = 1; g <= 32; g *= 2) sizes.push_back(g * (1ull << 30));
      return sizes;
    }();
    s.configs = kAll;
    s.ratios = {{"DRAM", "HBM", "DRAM advantage (x)"}};
    s.checks = {
        ratio_at_least("DRAM", "HBM", 2.2, 1.0,
                       "DRAM at least matches HBM for this latency-bound app"),
    };
    specs.push_back(std::move(s));
  }

  {
    ExperimentSpec s;
    s.id = "fig4d_graph500";
    s.title = "Fig. 4d: Graph500";
    s.x_label = "Graph Size (GB)";
    s.y_label = "TEPS";
    s.paper_shape =
        "DRAM best at every size; the gap grows with size — at 35 GB DRAM is ~1.3x "
        "cache mode; HBM series stops past 16 GB";
    s.kind = ExperimentKind::SizeSweep;
    s.workload = "Graph500";
    s.sizes_bytes = {gb(1.1), gb(2.2), gb(4.4), gb(8.8), gb(17.5), gb(35.0)};
    s.configs = kAll;
    s.ratios = {{"DRAM", "Cache Mode", "DRAM vs Cache (x)"}};
    s.checks = {
        ratio_at_least("DRAM", "Cache Mode", 35.0, 1.1,
                       "DRAM pulls ahead of cache mode at the largest graph"),
        ratio_at_least("DRAM", "Cache Mode", 2.2, 1.0,
                       "DRAM already best at small graphs"),
    };
    specs.push_back(std::move(s));
  }

  {
    ExperimentSpec s;
    s.id = "fig4e_xsbench";
    s.title = "Fig. 4e: XSBench";
    s.x_label = "Problem Size (GB)";
    s.y_label = "Lookups/s";
    s.paper_shape =
        "DRAM best at one thread/core; differences small at 5.6 GB and growing with "
        "size; HBM series stops past 16 GB (paper's footprints reach 90 GB)";
    s.kind = ExperimentKind::SizeSweep;
    s.workload = "XSBench";
    s.sizes_bytes = {gb(5.6), gb(11.3), gb(22.5), gb(45.0), gb(90.0)};
    s.configs = kAll;
    s.ratios = {{"DRAM", "HBM", "DRAM advantage (x)"}};
    s.checks = {
        ratio_at_least("DRAM", "HBM", 5.6, 1.0,
                       "DRAM best at one thread per core"),
        points_at_most("HBM", 2, "HBM holds only the two smallest problems"),
    };
    specs.push_back(std::move(s));
  }

  {
    ExperimentSpec s;
    s.id = "fig5_ht_stream";
    s.title = "Fig. 5: STREAM bandwidth vs hardware threads";
    s.x_label = "Size (GB)";
    s.y_label = "GB/s";
    s.paper_shape =
        "HBM: 2 HT reaches ~1.27x the 1-HT bandwidth (330 -> ~420 GB/s, up to ~450); "
        "DRAM: all four HT curves overlap at ~77 GB/s (already saturated)";
    s.kind = ExperimentKind::HtGrid;
    s.workload = "STREAM";
    s.sizes_bytes = fig5_sizes();
    s.thread_counts = {1, 2, 3, 4};  // hardware threads per core
    s.configs = kFlatPair;
    s.checks = {
        ratio_at_least("HBM (ht=2)", "HBM (ht=1)", 4.0, 1.2,
                       "second hardware thread lifts HBM bandwidth ~1.27x"),
        ratio_at_most("DRAM (ht=4)", "DRAM (ht=1)", 4.0, 1.05,
                      "DRAM bandwidth already saturated at one thread per core"),
    };
    specs.push_back(std::move(s));
  }

  {
    ExperimentSpec s;
    s.id = "fig6a_dgemm_ht";
    s.title = "Fig. 6a: DGEMM vs threads";
    s.x_label = "No. of Threads";
    s.y_label = "GFLOPS";
    s.paper_shape =
        "HBM gains ~1.7x from 64 -> 192 threads; DRAM stays flat (bandwidth-bound, "
        "hyper-threading cannot help)";
    s.kind = ExperimentKind::ThreadSweep;
    s.workload = "DGEMM";
    s.fixed_bytes = gb(6.0);
    // The paper's 256-thread DGEMM run failed to complete; sweep as published.
    s.thread_counts = {64, 128, 192};
    s.configs = kAll;
    s.self_speedup = true;
    s.checks = {
        growth_at_least("HBM", 1.4, "HBM gains ~1.7x from hyper-threading"),
        growth_at_most("DRAM", 1.15, "DRAM flat under hyper-threading"),
    };
    specs.push_back(std::move(s));
  }

  {
    ExperimentSpec s;
    s.id = "fig6b_minife_ht";
    s.title = "Fig. 6b: MiniFE vs threads";
    s.x_label = "No. of Threads";
    s.y_label = "CG MFLOPS";
    s.paper_shape =
        "HBM gains ~1.7x by 192 threads (3.8x vs DRAM@64 overall); DRAM flat; cache "
        "mode tracks HBM while the matrix fits MCDRAM";
    s.kind = ExperimentKind::ThreadSweep;
    s.workload = "MiniFE";
    s.fixed_bytes = gb(7.2);
    s.thread_counts = {64, 128, 192, 256};
    s.configs = kAll;
    s.self_speedup = true;
    s.checks = {
        growth_at_least("HBM", 1.4, "HBM keeps scaling with hardware threads"),
        growth_at_most("DRAM", 1.15, "DRAM flat under hyper-threading"),
        ratio_at_least("HBM", "DRAM", 192.0, 2.5,
                       "HBM/DDR speedup exceeds 1 for this bandwidth-bound app"),
    };
    specs.push_back(std::move(s));
  }

  {
    ExperimentSpec s;
    s.id = "fig6c_graph500_ht";
    s.title = "Fig. 6c: Graph500 vs threads";
    s.x_label = "No. of Threads";
    s.y_label = "TEPS";
    s.paper_shape =
        "all configs gain ~1.5x, peaking at 128 threads; DRAM remains the best "
        "configuration at every thread count";
    s.kind = ExperimentKind::ThreadSweep;
    s.workload = "Graph500";
    s.fixed_bytes = gb(8.8);
    s.thread_counts = {64, 128, 192, 256};
    s.configs = kAll;
    s.self_speedup = true;
    s.checks = {
        ratio_at_least("DRAM", "HBM", 128.0, 1.0,
                       "DRAM stays the best configuration under SMT"),
        ratio_at_least("DRAM", "HBM", 256.0, 1.0,
                       "DRAM still best at full SMT"),
    };
    specs.push_back(std::move(s));
  }

  {
    ExperimentSpec s;
    s.id = "fig6d_xsbench_ht";
    s.title = "Fig. 6d: XSBench vs threads";
    s.x_label = "No. of Threads";
    s.y_label = "Lookups/s";
    s.paper_shape =
        "all configs gain from threads; HBM/cache reach ~2.5x at 256 threads and "
        "overtake DRAM (~1.5x), flipping the best configuration";
    s.kind = ExperimentKind::ThreadSweep;
    s.workload = "XSBench";
    s.fixed_bytes = gb(5.6);
    s.thread_counts = {64, 128, 192, 256};
    s.configs = kAll;
    s.self_speedup = true;
    s.checks = {
        ratio_at_most("HBM", "DRAM", 64.0, 1.0,
                      "DRAM wins at one thread per core"),
        ratio_at_least("HBM", "DRAM", 256.0, 1.05,
                       "HBM overtakes DRAM at 256 threads (the paper's crossover)"),
        growth_at_least("HBM", 1.8, "HBM gains ~2.5x from hyper-threading"),
    };
    specs.push_back(std::move(s));
  }

  return specs;
}

}  // namespace

bool Tolerance::accepts(double expected, double actual) const {
  const double err = std::fabs(actual - expected);
  if (err <= abs) return true;
  return err <= rel * std::fabs(expected);
}

std::string to_string(ExperimentKind kind) {
  switch (kind) {
    case ExperimentKind::SizeSweep: return "size_sweep";
    case ExperimentKind::ThreadSweep: return "thread_sweep";
    case ExperimentKind::HtGrid: return "ht_grid";
    case ExperimentKind::Latency: return "latency";
    case ExperimentKind::Table: return "table";
  }
  return "unknown";
}

const std::vector<ExperimentSpec>& experiments() {
  static const std::vector<ExperimentSpec> kSpecs = build_registry();
  return kSpecs;
}

const ExperimentSpec* find_experiment(const std::string& id) {
  for (const ExperimentSpec& spec : experiments()) {
    if (spec.id == id) return &spec;
  }
  return nullptr;
}

}  // namespace knl::repro
