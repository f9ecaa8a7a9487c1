// capacity workload: cold and warm MCDRAM-capacity grids through
// report::sweep_capacities_run, on the shapes of the two `bench_sweep
// --preset full` grids — STREAM over 1..16 ways (the regular access pattern)
// and GUPS over 10 way counts (the random one) — scaled down 16x in
// footprint, sets and trace length. Per-set access counts, and so the
// hit-rate curves, keep their shape; the profiling pass's working set
// (about 4 MiB) then fits a core's private L2. At full size it is about
// 80 MiB, which shares the host's L3 with other tenants: on a shared 4-vCPU
// host the same cold GUPS grid took 430 to 1050 ms from one minute to the
// next. The seed goes into the trace synthesis. A cold sample clears the
// SweepCache first; a warm sample re-queries the resident profile.
//
// Runs at jobs = 1, the service's default sweep_jobs: with more workers the
// planner derives cells in parallel from one fresh shared ReuseProfile,
// whose const hits_for_ways() lazily rebuilds a mutable prefix-sum cache —
// a data race that aborted cold grids with heap corruption in testing.
//
// Every answered grid must equal the exact per-cell reference
// (single_pass = false), computed during set-up.
#include <algorithm>
#include <array>
#include <optional>

#include "common.hpp"
#include "core/machine.hpp"
#include "report/sweep.hpp"
#include "sim/reuse_profile.hpp"
#include "trace/synth.hpp"
#include "workloads/gups.hpp"
#include "workloads/stream.hpp"

namespace perfbench {

namespace {

using knl::report::CapacityCell;
using knl::report::CapacityGrid;
using knl::report::CapacitySweepRun;
using knl::report::SweepCache;

constexpr int kThreads = 64;
constexpr int kWarmQueries = 50;
/// Slack of the traced run's decomposition: per grid, the medians of synth
/// and profile, timed on their own, must fit inside the median cold grid
/// within 10% + 0.05 ms.
constexpr double kSlackFraction = 0.10;
constexpr double kSlackMs = 0.05;

struct GridSpec {
  std::string name;  ///< "regular" or "random"
  knl::trace::AccessProfile profile;
  CapacityGrid grid;
};

CapacityGrid make_grid(const std::vector<std::uint64_t>& ways, std::uint64_t seed) {
  CapacityGrid grid;
  grid.line_bytes = 64;
  grid.num_sets = 1ull << 13;
  grid.synth.max_addresses = 1u << 18;
  grid.synth.seed = mix64(seed);
  for (const std::uint64_t w : ways) {
    grid.capacities_bytes.push_back(w * grid.line_bytes * grid.num_sets);
  }
  return grid;
}

std::array<GridSpec, 2> make_specs(std::uint64_t seed) {
  std::vector<std::uint64_t> stream_ways;
  for (std::uint64_t w = 1; w <= 16; ++w) stream_ways.push_back(w);
  return {GridSpec{"regular", knl::workloads::StreamTriad(4ull << 20).profile(),
                   make_grid(stream_ways, seed)},
          GridSpec{"random", knl::workloads::Gups(16ull << 20).profile(),
                   make_grid({1, 2, 3, 4, 6, 8, 12, 16, 24, 32}, seed)}};
}

CapacitySweepRun sweep(const knl::Machine& machine, const GridSpec& spec,
                       const knl::report::SweepOptions& options = {}) {
  return knl::report::sweep_capacities_run(machine, spec.profile, kThreads, spec.grid,
                                           knl::report::Figure(spec.name, "GB", ""),
                                           options);
}

bool same_cells(const std::vector<CapacityCell>& a, const std::vector<CapacityCell>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].capacity_bytes != b[i].capacity_bytes || a[i].ways != b[i].ways ||
        a[i].hit_rate != b[i].hit_rate || a[i].effective_bw_gbs != b[i].effective_bw_gbs ||
        a[i].avg_latency_ns != b[i].avg_latency_ns || a[i].seconds != b[i].seconds) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::uint64_t capacity_input_digest(const Options& options) {
  std::uint64_t h = 0;
  for (const GridSpec& spec : make_specs(options.seed)) {
    for (const std::uint64_t a : knl::trace::synthesize_trace(spec.profile, spec.grid.synth)) {
      h = mix64(h ^ a);
    }
  }
  return h;
}

void run_capacity(const Options& options, Result& result) {
  SweepCache& cache = SweepCache::instance();

  // Set-up: machine, grids, one cold warm-up sweep of each grid, and the
  // exact per-cell reference (single_pass = false) the warm-up must equal.
  // The reference runs on one worker like the rest, so the set-up time does
  // not wait on every vCPU.
  knl::report::SweepOptions reference;
  reference.single_pass = false;
  reference.memoize = false;
  std::vector<double> setup_s;
  std::optional<knl::Machine> machine;
  std::array<GridSpec, 2> specs;
  std::array<std::vector<CapacityCell>, 2> first;
  const auto set_up = [&] {
    cache.clear();
    const Clock::time_point start = Clock::now();
    machine.emplace();
    specs = make_specs(options.seed);
    for (std::size_t g = 0; g < specs.size(); ++g) {
      CapacitySweepRun warm_up = sweep(*machine, specs[g]);
      const CapacitySweepRun exact = sweep(*machine, specs[g], reference);
      if (!warm_up.failures.empty() || !exact.failures.empty() ||
          !same_cells(warm_up.cells, exact.cells)) {
        result.fail(specs[g].name + ": cells differ from the per-cell reference");
      }
      first[g] = std::move(warm_up.cells);
    }
    setup_s.push_back(ms_since(start) / 1e3);
  };
  for (int rep = 0; rep < kSetupReps; ++rep) set_up();

  // Every answered grid must equal the warm-up's cells, which equal the
  // reference.
  const auto check = [&](std::size_t g, const CapacitySweepRun& run) {
    ++result.attempted;
    if (!run.failures.empty() || !same_cells(run.cells, first[g])) {
      ++result.failed;
      result.fail(specs[g].name + ": grid cells differ between samples");
    }
  };

  Tracer tracer(options.trace);
  std::array<std::vector<double>, 2> cold_ms;
  std::array<std::vector<double>, 2> traced_cold_ms;
  std::vector<double> warm_us;
  std::array<RoundSeries, 2> cold_rounds;
  Clock::time_point round_start = Clock::now();
  Clock::time_point last_setup = Clock::now();
  // Traced-run layer samples, per grid.
  std::array<std::vector<double>, 2> synth_ms, profile_ms, refs_per_s, derive_us,
      planner_self_ms, warm_self_us;
  std::array<knl::report::SweepStats, 2> cold_stats, warm_stats;
  std::array<knl::report::SweepCacheStats, 2> cycle_cache;

  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.seconds));
  for (std::uint64_t cycle = 0; Clock::now() < deadline; ++cycle) {
    const bool traced = options.trace && cycle % 2 == 1;
    std::array<double, 2> warm_grid_us{};
    for (std::size_t g = 0; g < specs.size(); ++g) {
      const GridSpec& spec = specs[g];
      cache.clear();
      cache.reset_stats();
      const Clock::time_point t0 = Clock::now();
      const CapacitySweepRun cold = sweep(*machine, spec);
      const Clock::time_point t1 = Clock::now();
      (traced ? traced_cold_ms : cold_ms)[g].push_back(us_between(t0, t1) / 1e3);
      if (!traced) cold_rounds[g].add(cold_ms[g].back());
      check(g, cold);

      std::vector<double> warm;
      for (int k = 0; k < kWarmQueries; ++k) {
        const Clock::time_point w0 = Clock::now();
        const CapacitySweepRun again = sweep(*machine, spec);
        warm.push_back(us_between(w0, Clock::now()));
        if (k > 0) continue;
        check(g, again);
        warm_stats[g] = again.stats;
        if (traced) cycle_cache[g] = cache.stats();
      }
      warm_grid_us[g] = quantile(warm, 0.5);
      if (!traced) continue;

      tracer.record("capacity.cold." + spec.name, t0, t1, Tracer::kNoSpan, cycle);
      cold_stats[g] = cold.stats;
      // The layers under the cold grid, each timed on its own on the same
      // inputs; the planner's self time is what they leave of the grid.
      const Clock::time_point s0 = Clock::now();
      const std::vector<std::uint64_t> addrs =
          knl::trace::synthesize_trace(spec.profile, spec.grid.synth);
      const Clock::time_point s1 = Clock::now();
      knl::sim::ReuseProfileConfig config;
      config.line_bytes = spec.grid.line_bytes;
      config.num_sets = spec.grid.num_sets;
      config.sample_every = spec.grid.sample_every;
      const knl::sim::ReuseProfile profile =
          knl::sim::profile_trace(addrs.data(), addrs.size(), config, 1);
      const Clock::time_point s2 = Clock::now();
      std::vector<std::uint64_t> hits;
      const std::uint64_t set_bytes = spec.grid.line_bytes * spec.grid.num_sets;
      for (const std::uint64_t capacity : spec.grid.capacities_bytes) {
        hits.push_back(profile.hits_for_ways(capacity / set_bytes));
      }
      const Clock::time_point s3 = Clock::now();
      for (std::size_t i = 0; i < hits.size(); ++i) {
        const double rate = static_cast<double>(hits[i]) / static_cast<double>(profile.sampled());
        if (rate != cold.cells[i].hit_rate) result.fail(spec.name + ": probe profile differs");
      }
      tracer.record("trace.synth." + spec.name, s0, s1, Tracer::kNoSpan, cycle);
      tracer.record("sim.profile." + spec.name, s1, s2, Tracer::kNoSpan, cycle);
      tracer.record("sim.derive." + spec.name, s2, s3, Tracer::kNoSpan, cycle);

      const double cold_grid_ms = us_between(t0, t1) / 1e3;
      const double synth = us_between(s0, s1) / 1e3;
      const double prof = us_between(s1, s2) / 1e3;
      synth_ms[g].push_back(synth);
      profile_ms[g].push_back(prof);
      refs_per_s[g].push_back(prof > 0.0 ? static_cast<double>(profile.sampled()) / (prof / 1e3)
                                         : 0.0);
      derive_us[g].push_back(us_between(s2, s3));
      planner_self_ms[g].push_back(cold_grid_ms - synth - prof);
      warm_self_us[g].push_back(warm_grid_us[g] - us_between(s2, s3));
    }
    if (!traced) warm_us.push_back((warm_grid_us[0] + warm_grid_us[1]) / 2.0);
    if (ms_since(round_start) >= kRoundS * 1e3) {
      for (RoundSeries& rounds : cold_rounds) rounds.close_round();
      if (ms_since(last_setup) >= kSetupEveryS * 1e3) {
        set_up();
        last_setup = Clock::now();
      }
      round_start = Clock::now();
    }
  }
  for (RoundSeries& rounds : cold_rounds) rounds.close_round();

  const double regular = quantile(cold_ms[0], 0.5);
  const double random = quantile(cold_ms[1], 0.5);
  const double warm = quantile(warm_us, 0.5);
  result.report["setup_s"] = {quantile(setup_s, kFastQuantile), "s", setup_s.size(),
                              "p10 of the set-ups spread over the run"};
  result.report["peak_rss_mb"] = {peak_rss_mb(), "MiB", 0, ""};
  result.report["capacity_regular_cold_ms"] = {regular, "ms", cold_ms[0].size(),
                                               "STREAM 4 MiB, 16 ways"};
  result.report["capacity_random_cold_ms"] = {random, "ms", cold_ms[1].size(),
                                              "GUPS 16 MiB, 10 way counts"};
  result.report["capacity_warm_us"] = {warm, "us", warm_us.size(),
                                       "mean of both grids, median of " +
                                           std::to_string(kWarmQueries) + " per cycle"};

  result.slots["setup_s"] = result.report["setup_s"];
  result.slots["peak_rss_mb"] = result.report["peak_rss_mb"];
  result.slots["main_ms"] = {cold_rounds[1].fast(), "ms", cold_rounds[1].rounds(),
                             "capacity_random_cold_ms"};
  result.slots["second_ms"] = {cold_rounds[0].fast(), "ms", cold_rounds[0].rounds(),
                               "capacity_regular_cold_ms"};

  if (!options.trace) return;
  for (std::size_t g = 0; g < specs.size(); ++g) {
    const std::string& name = specs[g].name;
    const std::size_t n = synth_ms[g].size();
    result.layers["synth.ms." + name] = {quantile(synth_ms[g], 0.5), "ms", n, ""};
    result.layers["reuse.profile_ms." + name] = {quantile(profile_ms[g], 0.5), "ms", n, ""};
    result.layers["reuse.refs_per_s." + name] = {quantile(refs_per_s[g], 0.5), "1/s", n,
                                                 "sampled refs / profile time"};
    result.layers["reuse.derive_us." + name] = {quantile(derive_us[g], 0.5), "us", n,
                                                "fresh profile"};
    result.layers["planner.self_ms." + name] = {quantile(planner_self_ms[g], 0.5), "ms", n,
                                                "cold grid minus synth minus profile"};
    result.layers["planner.warm_self_us." + name] = {quantile(warm_self_us[g], 0.5), "us", n,
                                                     "warm grid minus derive"};
    result.layers["planner.profile_passes." + name] = {
        static_cast<double>(cold_stats[g].profile_passes), "count", n, "cold grid"};
    result.layers["planner.profile_hits." + name] = {
        static_cast<double>(warm_stats[g].profile_hits), "count", n, "warm grid"};
    result.layers["planner.cells_derived." + name] = {
        static_cast<double>(cold_stats[g].cells_derived + warm_stats[g].cells_derived),
        "count", n, "cold + warm grid"};
    result.layers["cache.profile_hits." + name] = {
        static_cast<double>(cycle_cache[g].profile_hits), "count", n, "cold + warm grid"};
    result.layers["cache.profile_misses." + name] = {
        static_cast<double>(cycle_cache[g].profile_misses), "count", n, "cold + warm grid"};
  }
  result.layers["trace.overhead.capacity"] = {
      random > 0.0 ? quantile(traced_cold_ms[1], 0.5) / random : 0.0, "ratio",
      traced_cold_ms[1].size(), "traced random cold p50 / untraced"};
  double worst = 0.0;
  for (std::size_t g = 0; g < specs.size(); ++g) {
    const double parts = quantile(synth_ms[g], 0.5) + quantile(profile_ms[g], 0.5);
    const double whole = quantile(traced_cold_ms[g], 0.5);
    worst = std::max(worst, whole > 0.0 ? parts / whole : 0.0);
    if (parts > whole * (1.0 + kSlackFraction) + kSlackMs) {
      result.fail(specs[g].name + ": synth + profile exceed the cold grid beyond the slack");
    }
  }
  result.layers["trace.parts_ratio.capacity"] = {
      worst, "ratio", traced_cold_ms[1].size(),
      "max over grids of median (synth + profile) / median cold grid"};
  if (!options.trace_out.empty() && !tracer.write_json(options.trace_out)) {
    result.fail("cannot write " + options.trace_out);
  }
}

}  // namespace perfbench
