// Internal-validation bench: the analytic Little's-law TimingModel vs the
// discrete trace-driven simulator (TraceMachine) on the same machine
// parameters. The two are independent implementations of the memory
// system; agreement is the evidence that the figure benches rest on a
// consistent model rather than hand-picked numbers.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "sim/timing_model.hpp"
#include "sim/trace_machine.hpp"
#include "trace/generators.hpp"

int main(int argc, char** argv) {
  // Uniform bench CLI: no sweep here, flags accepted for consistency.
  (void)knl::bench::parse_args(argc, argv);
  using namespace knl;
  using namespace knl::sim;

  std::printf("==== Model validation: analytic vs trace-driven replay ====\n\n");

  // --- Dependent chase latency across footprints, both nodes --------------
  std::printf("dependent pointer-chase, ns/access (replay vs analytic):\n");
  std::printf("%-12s  %-22s  %-22s\n", "footprint", "DDR replay/model",
              "HBM replay/model");
  TimingModel analytic;
  for (const std::uint64_t footprint : {40ull << 20, 320ull << 20, 1280ull << 20}) {
    const auto slots = static_cast<std::uint32_t>(footprint / 64);
    // The permutation must span the whole footprint, but a Sattolo cycle
    // visits every line exactly once, so a 4M-step prefix measures the same
    // per-access latency as the full cycle — replay time stays bounded
    // while the footprint grows.
    const std::uint64_t steps = std::min<std::uint64_t>(slots, 512u << 10);
    const auto next = trace::build_chase_permutation(slots, 17);
    std::vector<std::uint64_t> addrs;
    addrs.reserve(steps);
    trace::generate_chase(0, next, 64, steps, [&](std::uint64_t a) {
      addrs.push_back(a);
    });

    trace::AccessPhase phase;
    phase.name = "chase";
    phase.pattern = trace::Pattern::PointerChase;
    phase.footprint_bytes = footprint;
    phase.logical_bytes = static_cast<double>(footprint);
    phase.granule_bytes = 8;

    double replay[2], model[2];
    int idx = 0;
    for (const auto& node : {params::kDdr, params::kHbm}) {
      TraceMachineConfig cfg;
      cfg.node = node;
      TraceMachine machine(cfg);
      replay[idx] = machine.replay_chained(addrs, 1).avg_access_ns();
      model[idx] = analytic.effective_latency_ns(phase, node, params::kDdr, 0.0);
      ++idx;
    }
    std::printf("%9.0f MB  %8.1f / %-8.1f      %8.1f / %-8.1f\n",
                static_cast<double>(footprint) / 1e6, replay[0], model[0], replay[1],
                model[1]);
  }

  // --- MSHR-limited random throughput (Little's law) ----------------------
  std::printf("\nindependent random reads, GB/s vs MSHRs (replay vs M*line/lat):\n");
  const auto addrs = [] {
    std::vector<std::uint64_t> out;
    trace::generate_uniform_random(0, 640ull << 20, 750000, 23,
                                   [&](std::uint64_t a) { out.push_back(a); });
    return out;
  }();
  Mesh mesh;
  const double miss_lat =
      params::kDdr.idle_latency_ns + mesh.directory_latency_ns() + params::kL2LatencyNs;
  for (const int mshrs : {2, 4, 8, 12, 16}) {
    TraceMachineConfig cfg;
    cfg.mshrs = mshrs;
    TraceMachine machine(cfg);
    const auto stats = machine.replay_independent(addrs);
    const double littles = mshrs * 64.0 / miss_lat;
    std::printf("  mshrs=%2d   replay %6.2f GB/s   Little's law %6.2f GB/s\n", mshrs,
                stats.memory_bandwidth_gbs(), littles);
  }

  std::printf("\nexpected: replay within ~20%% of the closed form everywhere — the\n"
              "same relation the paper invokes (SIV-B, Little's Law).\n");
  return 0;
}
