#include "core/advisor.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "core/fault/error.hpp"

namespace knl {

trace::AccessProfile Advisor::synthesize(const AppCharacteristics& app) {
  if (app.footprint_bytes == 0) {
    throw std::invalid_argument("Advisor: footprint_bytes must be positive");
  }
  if (app.regular_fraction < 0.0 || app.regular_fraction > 1.0) {
    throw std::invalid_argument("Advisor: regular_fraction outside [0,1]");
  }

  trace::AccessProfile profile("advisor:" + app.name);
  profile.set_resident_bytes(app.footprint_bytes);

  // One representative "iteration" touching the footprint ten times keeps
  // relative timings independent of absolute work.
  const double logical = 10.0 * static_cast<double>(app.footprint_bytes);
  const double regular_bytes = logical * app.regular_fraction;
  const double random_bytes = logical - regular_bytes;

  if (regular_bytes > 0.0) {
    trace::AccessPhase seq;
    seq.name = "regular";
    seq.pattern = trace::Pattern::Sequential;
    seq.footprint_bytes = app.footprint_bytes;
    seq.logical_bytes = regular_bytes;
    seq.sweeps = std::max(1.0, 10.0 * app.regular_fraction);
    seq.flops = regular_bytes * app.flops_per_byte;
    seq.write_fraction = 0.3;
    profile.add(seq);
  }
  if (random_bytes > 0.0) {
    trace::AccessPhase rnd;
    rnd.name = "random";
    rnd.pattern = trace::Pattern::Random;
    rnd.footprint_bytes = app.footprint_bytes;
    rnd.logical_bytes = random_bytes;
    rnd.granule_bytes = app.random_granule_bytes;
    rnd.flops = random_bytes * app.flops_per_byte;
    profile.add(rnd);
  }
  return profile;
}

Advice Advisor::advise(const AppCharacteristics& app) const {
  if (app.max_threads < 64) {
    throw std::invalid_argument("Advisor: max_threads below the DRAM@64 baseline");
  }
  const trace::AccessProfile profile = synthesize(app);
  std::vector<int> threads;
  for (const int t : {64, 128, 192, 256}) {
    if (t <= app.max_threads) threads.push_back(t);
  }

  Advice advice;
  advice.ranked.reserve(3 * threads.size());
  double base_seconds = 0.0;
  for (const MemConfig config :
       {MemConfig::DRAM, MemConfig::HBM, MemConfig::CacheMode}) {
    const std::vector<RunResult> runs = machine_.run_threads(profile, config, threads);
    // Baseline the paper normalizes against: DRAM with one thread per core.
    // An infeasible run takes 0 s.
    if (config == MemConfig::DRAM) base_seconds = runs.front().seconds;
    if (base_seconds <= 0.0) {
      throw Error::resource("advisor/baseline-infeasible",
                            "Advisor: baseline DRAM run infeasible — footprint " +
                                std::to_string(app.footprint_bytes) + " B exceeds DDR");
    }
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const RunResult& r = runs[i];
      const bool ran = r.feasible && r.seconds > 0.0;
      advice.ranked.push_back(Recommendation{config, threads[i],
                                             ran ? base_seconds / r.seconds : 0.0, r.feasible,
                                             ran ? std::string() : r.infeasible_reason});
    }
  }
  std::stable_sort(advice.ranked.begin(), advice.ranked.end(),
                   [](const Recommendation& a, const Recommendation& b) {
                     return a.predicted_speedup_vs_dram64 > b.predicted_speedup_vs_dram64;
                   });
  advice.best = advice.ranked.front();

  // Paper-style classification and rationale.
  const sim::MemoryTopology& topology = machine_.memory_topology();
  const sim::MemoryTier& fast = topology.tier(static_cast<std::size_t>(topology.fast_tier()));
  const bool fits_hbm = app.footprint_bytes <= fast.params.capacity_bytes;
  std::ostringstream why;
  if (app.flops_per_byte > 8.0) {
    advice.classification = "compute-bound";
    why << "High arithmetic intensity: memory system choice is secondary; ";
  } else if (app.regular_fraction >= 0.5) {
    advice.classification = "bandwidth-bound";
    why << "Regular access dominates: prefetchable, so HBM's ~4x bandwidth pays off; ";
  } else {
    advice.classification = "latency-bound";
    why << "Random access dominates: few outstanding requests, so HBM's ~18% higher "
           "latency hurts unless hardware threads add concurrency; ";
  }
  if (!fits_hbm) {
    why << "footprint exceeds " << fast.name << " (" << app.footprint_bytes / GiB << " GiB > "
        << fast.params.capacity_bytes / GiB
        << " GiB): flat HBM infeasible, cache mode degrades with size; ";
  }
  why << "best: " << to_string(advice.best.config) << " @ " << advice.best.threads
      << " threads (" << std::fixed << std::setprecision(2)
      << advice.best.predicted_speedup_vs_dram64 << "x vs DRAM@64).";
  advice.best.rationale = why.str();
  return advice;
}

}  // namespace knl
