// Integration tests across modules: machine + workloads + advisor working
// together the way the examples and benches use them.
#include <gtest/gtest.h>

#include "core/advisor.hpp"
#include "core/machine.hpp"
#include "report/sweep.hpp"
#include "workloads/registry.hpp"

namespace knl {
namespace {

TEST(EndToEnd, EveryWorkloadRunsUnderEveryConfigWhenItFits) {
  Machine machine;
  for (const auto& entry : workloads::registry()) {
    const auto w = entry.make(4 * GiB);
    const auto profile = w->profile();
    for (const MemConfig config :
         {MemConfig::DRAM, MemConfig::HBM, MemConfig::CacheMode}) {
      const RunResult r = machine.run(profile, RunConfig{config, 64});
      ASSERT_TRUE(r.feasible) << entry.info.name << " " << to_string(config);
      EXPECT_GT(r.seconds, 0.0) << entry.info.name;
      EXPECT_GT(r.bytes_from_memory, 0.0) << entry.info.name;
      EXPECT_GT(w->metric(r), 0.0) << entry.info.name;
      // Effective latency must stay within physical bounds.
      EXPECT_GT(r.avg_latency_ns, 5.0) << entry.info.name;
      EXPECT_LT(r.avg_latency_ns, 5000.0) << entry.info.name;
    }
  }
}

TEST(EndToEnd, AccessPatternDeterminesWinner) {
  // The paper's core conclusion, checked across the whole registry: every
  // Sequential-pattern application prefers HBM, every Random-pattern
  // application prefers DRAM (at one thread per core).
  Machine machine;
  for (const auto& entry : workloads::registry()) {
    if (entry.info.type == "Micro-benchmark") continue;
    const auto w = entry.make(8 * GiB);
    const auto profile = w->profile();
    const double dram =
        w->metric(machine.run(profile, RunConfig{MemConfig::DRAM, 64}));
    const double hbm = w->metric(machine.run(profile, RunConfig{MemConfig::HBM, 64}));
    if (entry.info.access_pattern == "Sequential") {
      EXPECT_GT(hbm, dram) << entry.info.name;
    } else {
      EXPECT_GT(dram, hbm) << entry.info.name;
    }
  }
}

TEST(EndToEnd, MemKindHbwCapacityMirrorsHbmRunFeasibility) {
  // hbw_malloc-style binding of a whole footprint to MCDRAM: 15 GiB fits
  // the 16 GiB node, 17 GiB does not.
  Machine machine;

  trace::AccessProfile p("x");
  trace::AccessPhase phase;
  phase.name = "s";
  phase.pattern = trace::Pattern::Sequential;
  phase.footprint_bytes = 15 * GiB;
  phase.logical_bytes = 1e9;
  p.add(phase);
  EXPECT_TRUE(machine.run(p, RunConfig{MemConfig::HBM, 64}).feasible);

  trace::AccessProfile big("y");
  phase.footprint_bytes = 17 * GiB;
  big.add(phase);
  EXPECT_FALSE(machine.run(big, RunConfig{MemConfig::HBM, 64}).feasible);
}

TEST(EndToEnd, AdvisorAgreesWithDirectSimulationForTableOneApps) {
  Machine machine;
  const Advisor advisor(machine);

  // GUPS-like characterization must not recommend HBM at 64 threads.
  AppCharacteristics random_app;
  random_app.name = "gups";
  random_app.regular_fraction = 0.0;
  random_app.footprint_bytes = 8 * GiB;
  random_app.max_threads = 64;
  EXPECT_EQ(advisor.advise(random_app).best.config, MemConfig::DRAM);

  // STREAM-like characterization must recommend HBM.
  AppCharacteristics regular_app;
  regular_app.name = "stream";
  regular_app.regular_fraction = 1.0;
  regular_app.footprint_bytes = 8 * GiB;
  EXPECT_EQ(advisor.advise(regular_app).best.config, MemConfig::HBM);
}

TEST(EndToEnd, SweepMatchesDirectRuns) {
  Machine machine;
  const auto& entry = workloads::find_workload("MiniFE");
  const auto figure = report::sweep_sizes_run(
                            machine, [&entry](std::uint64_t b) { return entry.make(b); },
                            {4 * GiB}, 64, {MemConfig::DRAM}, report::Figure("t", "x", "y"))
                            .figure;
  const auto w = entry.make(4 * GiB);
  const double direct =
      w->metric(machine.run(w->profile(), RunConfig{MemConfig::DRAM, 64}));
  ASSERT_EQ(figure.series().size(), 1u);
  EXPECT_NEAR(figure.series()[0].points[0].second, direct, direct * 1e-9);
}

TEST(EndToEnd, DetailedRunExposesPhaseAttribution) {
  Machine machine;
  const auto w = workloads::find_workload("XSBench").make(8 * GiB);
  const auto detailed = machine.run_detailed(w->profile(), RunConfig{MemConfig::DRAM, 64});
  ASSERT_EQ(detailed.phases.size(), 2u);
  double total = 0.0;
  for (const auto& ph : detailed.phases) total += ph.timing.seconds;
  EXPECT_NEAR(total, detailed.summary.seconds, 1e-12);
}

}  // namespace
}  // namespace knl
