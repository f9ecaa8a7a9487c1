#include "core/placement_plan.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace knl {

namespace {

/// Tier fractions of a structure with `fast_share` of its pages in the fast
/// tier and the rest in the DRAM tier.
std::vector<double> fractions(const sim::MemoryTopology& topology, double fast_share) {
  std::vector<double> out(topology.tier_count(), 0.0);
  out[static_cast<std::size_t>(topology.fast_tier())] = fast_share;
  out[static_cast<std::size_t>(topology.dram_tier())] = 1.0 - fast_share;
  return out;
}

}  // namespace

RunResult FineGrainedPlacer::run_plan(const trace::AccessProfile& profile, int threads,
                                      const PlacementPlan& plan) const {
  RunResult result;
  result.feasible = true;

  // Capacity accounting across phases/structures.
  std::uint64_t hbm_used = 0;
  std::uint64_t ddr_used = 0;
  for (const auto& phase : profile.phases()) {
    double fraction = 0.0;
    if (auto it = plan.find(phase.name); it != plan.end()) {
      if (it->second < 0.0 || it->second > 1.0) {
        throw std::invalid_argument("run_plan: fraction outside [0,1] for phase '" +
                                    phase.name + "'");
      }
      fraction = it->second;
    }
    const auto hbm_part = static_cast<std::uint64_t>(
        static_cast<double>(phase.footprint_bytes) * fraction);
    hbm_used += hbm_part;
    ddr_used += phase.footprint_bytes - hbm_part;
  }
  for (const auto& [name, fraction] : plan) {
    bool found = false;
    for (const auto& phase : profile.phases()) {
      found = found || phase.name == name;
    }
    if (!found) {
      throw std::invalid_argument("run_plan: plan names unknown phase '" + name + "'");
    }
  }
  const sim::MemoryTopology& topology = machine_.memory_topology();
  const sim::MemoryTier& fast = topology.tier(static_cast<std::size_t>(topology.fast_tier()));
  const sim::MemoryTier& dram = topology.tier(static_cast<std::size_t>(topology.dram_tier()));
  if (hbm_used > fast.params.capacity_bytes) {
    result.feasible = false;
    result.infeasible_reason = "plan overcommits " + fast.name;
    return result;
  }
  if (ddr_used > dram.params.capacity_bytes) {
    result.feasible = false;
    result.infeasible_reason = "plan overcommits " + dram.name;
    return result;
  }

  const auto& timing = machine_.timing();
  const RunConfig rc{MemConfig::DRAM, threads, 0.0};  // flat mode
  double latency_weight = 0.0;
  for (const auto& phase : profile.phases()) {
    double fraction = 0.0;
    if (auto it = plan.find(phase.name); it != plan.end()) fraction = it->second;
    const auto t = timing.time_phase(phase, rc, topology, fractions(topology, fraction));
    result.seconds += t.seconds;
    result.bytes_from_memory += t.memory_bytes;
    result.flops += phase.flops;
    result.avg_latency_ns += t.effective_latency_ns * t.memory_bytes;
    latency_weight += t.memory_bytes;
  }
  if (latency_weight > 0.0) result.avg_latency_ns /= latency_weight;
  if (result.seconds > 0.0) {
    result.achieved_bw_gbs = result.bytes_from_memory / (result.seconds * 1e9);
  }
  return result;
}

PlanOutcome FineGrainedPlacer::optimize(const trace::AccessProfile& profile,
                                        int threads) const {
  const auto& timing = machine_.timing();
  const sim::MemoryTopology& topology = machine_.memory_topology();
  const RunConfig rc{MemConfig::DRAM, threads, 0.0};
  const std::vector<double> all_dram = fractions(topology, 0.0);
  const std::vector<double> all_fast = fractions(topology, 1.0);

  struct Candidate {
    const trace::AccessPhase* phase;
    double seconds_saved;  // t(DDR) - t(HBM), full placement
    double density;        // saved per byte
  };
  std::vector<Candidate> candidates;
  for (const auto& phase : profile.phases()) {
    if (phase.footprint_bytes == 0) continue;
    const double t_ddr = timing.time_phase(phase, rc, topology, all_dram).seconds;
    const double t_hbm = timing.time_phase(phase, rc, topology, all_fast).seconds;
    const double saved = t_ddr - t_hbm;
    if (saved <= 0.0) continue;  // latency-bound structure: keep in DDR
    candidates.push_back(
        {&phase, saved, saved / static_cast<double>(phase.footprint_bytes)});
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.density > b.density;
                   });

  PlanOutcome outcome;
  std::uint64_t budget =
      topology.tier(static_cast<std::size_t>(topology.fast_tier())).params.capacity_bytes;
  for (const Candidate& c : candidates) {
    if (budget == 0) break;
    const std::uint64_t take = std::min<std::uint64_t>(budget, c.phase->footprint_bytes);
    const double fraction =
        static_cast<double>(take) / static_cast<double>(c.phase->footprint_bytes);
    // Partial placement splits traffic linearly in the model; only worth it
    // if the fractional share still helps (it does whenever saved > 0).
    outcome.plan[c.phase->name] = fraction;
    outcome.hbm_bytes += take;
    budget -= take;
  }

  outcome.result = run_plan(profile, threads, outcome.plan);
  const RunResult all_ddr = run_plan(profile, threads, {});
  if (outcome.result.feasible && all_ddr.feasible && outcome.result.seconds > 0.0) {
    outcome.speedup_vs_all_ddr = all_ddr.seconds / outcome.result.seconds;
  }
  return outcome;
}

}  // namespace knl
