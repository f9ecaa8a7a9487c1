// Global property sweeps: invariants that must hold for EVERY workload at
// EVERY size/config/thread combination — the broad net that catches model
// regressions the targeted tests miss.
#include <gtest/gtest.h>

#include <tuple>

#include "core/machine.hpp"
#include "workloads/registry.hpp"

namespace knl {
namespace {

using SweepParam = std::tuple<std::string, std::uint64_t>;  // workload, footprint

class WorkloadSweep : public ::testing::TestWithParam<SweepParam> {
 protected:
  Machine machine;
};

TEST_P(WorkloadSweep, MetricPositiveAndLatencyPhysical) {
  const auto& [name, bytes] = GetParam();
  const auto w = workloads::find_workload(name).make(bytes);
  const auto profile = w->profile();
  for (const MemConfig config :
       {MemConfig::DRAM, MemConfig::HBM, MemConfig::CacheMode}) {
    for (const int threads : {64, 128, 256}) {
      const RunResult r = machine.run(profile, RunConfig{config, threads});
      if (!r.feasible) {
        // Only HBM may be infeasible, and only when the footprint exceeds it.
        EXPECT_EQ(config, MemConfig::HBM);
        EXPECT_GT(profile.resident_bytes(),
                  machine.config().fast_tier().capacity_bytes);
        continue;
      }
      EXPECT_GT(w->metric(r), 0.0) << name << " " << to_string(config);
      EXPECT_GT(r.seconds, 0.0);
      EXPECT_GE(r.avg_latency_ns, params::kL1LatencyNs);
      EXPECT_LT(r.avg_latency_ns, 10000.0);
      EXPECT_GE(r.mcdram_hit_rate, 0.0);
      EXPECT_LE(r.mcdram_hit_rate, 1.0);
    }
  }
}

TEST_P(WorkloadSweep, ThreadsNeverHurt) {
  const auto& [name, bytes] = GetParam();
  const auto w = workloads::find_workload(name).make(bytes);
  const auto profile = w->profile();
  for (const MemConfig config :
       {MemConfig::DRAM, MemConfig::HBM, MemConfig::CacheMode}) {
    double prev = 0.0;
    for (const int threads : {64, 128, 192, 256}) {
      const RunResult r = machine.run(profile, RunConfig{config, threads});
      if (!r.feasible) continue;
      const double metric = w->metric(r);
      EXPECT_GE(metric, prev * 0.999)
          << name << " " << to_string(config) << " @" << threads;
      prev = metric;
    }
  }
}

TEST_P(WorkloadSweep, BandwidthNeverExceedsNodeEnvelope) {
  const auto& [name, bytes] = GetParam();
  const auto w = workloads::find_workload(name).make(bytes);
  const auto profile = w->profile();
  const double hbm_cap = machine.config().fast_tier().stream_bw_gbs;
  for (const MemConfig config :
       {MemConfig::DRAM, MemConfig::HBM, MemConfig::CacheMode}) {
    for (const int threads : {64, 256}) {
      const RunResult r = machine.run(profile, RunConfig{config, threads});
      if (!r.feasible) continue;
      const double cap = config == MemConfig::DRAM
                             ? machine.config().dram_tier().stream_bw_gbs
                             : hbm_cap;
      EXPECT_LE(r.achieved_bw_gbs, cap * 1.001) << name << " " << to_string(config);
    }
  }
}

TEST_P(WorkloadSweep, DeterministicAcrossRepeats) {
  const auto& [name, bytes] = GetParam();
  const auto w = workloads::find_workload(name).make(bytes);
  const auto r1 = machine.run(w->profile(), RunConfig{MemConfig::CacheMode, 128});
  const auto r2 = machine.run(w->profile(), RunConfig{MemConfig::CacheMode, 128});
  EXPECT_DOUBLE_EQ(r1.seconds, r2.seconds);
  EXPECT_DOUBLE_EQ(r1.mcdram_hit_rate, r2.mcdram_hit_rate);
}

std::vector<SweepParam> sweep_params() {
  std::vector<SweepParam> params;
  const std::uint64_t sizes[] = {1ull << 30, 8ull << 30, 24ull << 30};
  for (const char* name : {"DGEMM", "MiniFE", "GUPS", "Graph500", "XSBench"}) {
    for (const std::uint64_t bytes : sizes) {
      params.emplace_back(name, bytes);
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloadsAllSizes, WorkloadSweep,
                         ::testing::ValuesIn(sweep_params()),
                         [](const ::testing::TestParamInfo<SweepParam>& pi) {
                           return std::get<0>(pi.param) + "_" +
                                  std::to_string(std::get<1>(pi.param) >> 30) + "GiB";
                         });

}  // namespace
}  // namespace knl
