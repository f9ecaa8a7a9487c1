// bench_sweep: wall-time of the single-pass capacity-sweep engine against
// the exact per-cell reference on the paper's Fig. 2 / Fig. 5 style grids.
//
// Three timings per grid, all over the same synthesized trace:
//   per-cell    SweepOptions{single_pass=false}: one full replay per
//               capacity (the pre-PR cost model)
//   single-pass one profiling replay, every capacity derived from the
//               reuse-distance histogram (cold: includes the pass)
//   warm        the same grid again: the profile comes out of the
//               SweepCache, so the sweep is pure histogram arithmetic
//
// The default run is deliberately small (the measurement harness executes
// every binary in build/bench/ with no arguments); `--preset full` runs the
// paper-scale grids. `--check` exits 1 when the two engines
// disagree on any cell — CI's chaos job runs it under KNL_FAULT_PLAN to
// prove fault recovery never changes results.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/fault/fault_injection.hpp"
#include "core/machine.hpp"
#include "report/sweep.hpp"
#include "repro/json.hpp"
#include "workloads/gups.hpp"
#include "workloads/stream.hpp"

namespace {

using knl::Machine;
using knl::report::CapacityGrid;
using knl::report::CapacitySweepRun;
using knl::report::Figure;
using knl::report::SweepCache;
using knl::report::SweepOptions;
using knl::repro::json::Value;

struct BenchOptions {
  std::string preset = "quick";
  std::string out;
  bool check = false;
  int jobs = 0;
};

struct GridSpec {
  std::string name;
  knl::trace::AccessProfile profile;
  CapacityGrid grid;
};

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

CapacityGrid make_grid(std::uint64_t num_sets, std::vector<std::uint64_t> ways,
                       std::uint64_t max_addresses) {
  CapacityGrid grid;
  grid.line_bytes = 64;
  grid.num_sets = num_sets;
  grid.synth.max_addresses = max_addresses;
  for (const std::uint64_t w : ways) {
    grid.capacities_bytes.push_back(w * grid.line_bytes * grid.num_sets);
  }
  return grid;
}

/// Fig. 2 shape: STREAM at a fixed footprint, MCDRAM-cache capacity swept
/// in whole ways (integer, not just powers of two — the analytic derivation
/// makes the denser grid free). Fig. 5 shape: GUPS, pow2 ways.
std::vector<GridSpec> make_specs(const std::string& preset) {
  std::vector<GridSpec> specs;
  if (preset == "full") {
    std::vector<std::uint64_t> fig2_ways;
    for (std::uint64_t w = 1; w <= 16; ++w) fig2_ways.push_back(w);
    specs.push_back({"fig2-stream-capacity",
                     knl::workloads::StreamTriad(64ull << 20).profile(),
                     make_grid(1ull << 17, fig2_ways, 1u << 22)});
    specs.push_back({"fig5-gups-capacity",
                     knl::workloads::Gups(256ull << 20).profile(),
                     make_grid(1ull << 17, {1, 2, 3, 4, 6, 8, 12, 16, 24, 32},
                               1u << 22)});
  } else {
    std::vector<std::uint64_t> ways;
    for (std::uint64_t w = 1; w <= 8; ++w) ways.push_back(w);
    specs.push_back({"quick-stream-capacity",
                     knl::workloads::StreamTriad(8ull << 20).profile(),
                     make_grid(1ull << 14, ways, 1u << 20)});
  }
  return specs;
}

bool same_results(const CapacitySweepRun& a, const CapacitySweepRun& b) {
  if (a.cells.size() != b.cells.size() ||
      a.failures.size() != b.failures.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.failures.size(); ++i) {
    if (a.failures[i].index != b.failures[i].index) return false;
  }
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    if (a.cells[i].capacity_bytes != b.cells[i].capacity_bytes ||
        a.cells[i].ways != b.cells[i].ways ||
        a.cells[i].hit_rate != b.cells[i].hit_rate ||
        a.cells[i].effective_bw_gbs != b.cells[i].effective_bw_gbs ||
        a.cells[i].seconds != b.cells[i].seconds) {
      return false;
    }
  }
  return true;
}

[[noreturn]] void usage(int code) {
  std::fprintf(code == 0 ? stdout : stderr,
               "usage: bench_sweep [--preset quick|full] [--jobs N] "
               "[--out FILE] [--check]\n");
  std::exit(code);
}

BenchOptions parse_args(int argc, char** argv) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(2);
      return argv[++i];
    };
    if (arg == "--preset") {
      options.preset = value();
      if (options.preset != "quick" && options.preset != "full") usage(2);
    } else if (arg == "--jobs") {
      options.jobs = std::atoi(value().c_str());
    } else if (arg == "--out") {
      options.out = value();
    } else if (arg == "--check") {
      options.check = true;
    } else if (arg == "--help") {
      usage(0);
    } else {
      usage(2);
    }
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions options = parse_args(argc, argv);
  // CI's chaos job sets $KNL_FAULT_PLAN: recovery must not change results.
  std::string fault_error;
  if (!knl::fault::arm_from_env(&fault_error)) {
    std::fprintf(stderr, "bench_sweep: %s\n", fault_error.c_str());
    return 2;
  }
  const Machine machine;
  bool diverged = false;
  double min_speedup = 0.0;

  Value grids = Value::array();
  for (GridSpec& spec : make_specs(options.preset)) {
    const std::size_t cells = spec.grid.capacities_bytes.size();

    SweepOptions reference;
    reference.single_pass = false;
    reference.memoize = false;
    reference.jobs = options.jobs;
    SweepCache::instance().clear();
    auto start = std::chrono::steady_clock::now();
    const CapacitySweepRun exact = knl::report::sweep_capacities_run(
        machine, spec.profile, 64, spec.grid, Figure(spec.name, "GB", ""),
        reference);
    const double per_cell_ms = ms_since(start);

    SweepOptions fast;
    fast.jobs = options.jobs;
    SweepCache::instance().clear();
    start = std::chrono::steady_clock::now();
    const CapacitySweepRun cold = knl::report::sweep_capacities_run(
        machine, spec.profile, 64, spec.grid, Figure(spec.name, "GB", ""),
        fast);
    const double single_pass_ms = ms_since(start);

    // Same fingerprint again: the profile is a cache hit, no replay at all.
    start = std::chrono::steady_clock::now();
    const CapacitySweepRun warm = knl::report::sweep_capacities_run(
        machine, spec.profile, 64, spec.grid, Figure(spec.name, "GB", ""),
        fast);
    const double warm_ms = ms_since(start);

    const bool same =
        same_results(exact, cold) && same_results(exact, warm);
    diverged = diverged || !same;
    const double speedup = single_pass_ms > 0.0 ? per_cell_ms / single_pass_ms : 0.0;
    min_speedup = (min_speedup == 0.0) ? speedup : std::min(min_speedup, speedup);

    Value one = Value::object();
    one.set("grid", spec.name);
    one.set("cells", static_cast<double>(cells));
    one.set("per_cell_ms", per_cell_ms);
    one.set("single_pass_ms", single_pass_ms);
    one.set("warm_ms", warm_ms);
    one.set("speedup", speedup);
    one.set("per_cell_cells_per_sec",
            per_cell_ms > 0.0 ? 1e3 * static_cast<double>(cells) / per_cell_ms : 0.0);
    one.set("single_pass_cells_per_sec",
            single_pass_ms > 0.0 ? 1e3 * static_cast<double>(cells) / single_pass_ms
                                 : 0.0);
    one.set("warm_cells_per_sec",
            warm_ms > 0.0 ? 1e3 * static_cast<double>(cells) / warm_ms : 0.0);
    one.set("profile_passes", static_cast<double>(cold.stats.profile_passes));
    one.set("warm_profile_hits", static_cast<double>(warm.stats.profile_hits));
    one.set("cells_derived", static_cast<double>(cold.stats.cells_derived));
    one.set("failures", static_cast<double>(cold.failures.size()));
    one.set("matches_reference", same);
    grids.push_back(std::move(one));

    std::printf(
        "%-24s cells=%2zu  per-cell %8.2f ms  single-pass %8.2f ms  "
        "warm %7.3f ms  speedup %5.1fx  %s\n",
        spec.name.c_str(), cells, per_cell_ms, single_pass_ms, warm_ms, speedup,
        same ? "exact" : "DIVERGED");
  }

  Value report = Value::object();
  report.set("bench", "capacity-sweep single-pass vs per-cell reference");
  report.set("preset", options.preset);
  report.set("min_speedup", min_speedup);
  report.set("diverged", diverged);
  report.set("grids", std::move(grids));
  if (!options.out.empty()) {
    std::ofstream out(options.out);
    out << report.dump(2) << "\n";
    std::printf("wrote %s\n", options.out.c_str());
  }

  if (options.check && diverged) {
    std::fprintf(stderr, "bench_sweep --check: engines diverged\n");
    return 1;
  }
  return 0;
}
