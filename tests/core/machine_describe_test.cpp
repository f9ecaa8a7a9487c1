// Tests for machine presets and derived configurations not covered by the
// main machine tests.
#include <gtest/gtest.h>

#include "core/machine.hpp"
#include "workloads/stream.hpp"

namespace knl {
namespace {

TEST(MachinePresets, Knl7210IsTheDefault) {
  const MachineConfig def;
  const MachineConfig knl = MachineConfig::knl7210();
  EXPECT_EQ(def.dram_tier().capacity_bytes, knl.dram_tier().capacity_bytes);
  EXPECT_EQ(def.fast_tier().idle_latency_ns, knl.fast_tier().idle_latency_ns);
  EXPECT_TRUE(def.topology == sim::MemoryTopology::knl7210());
}

TEST(MachinePresets, EqualLatencyOnlyChangesHbmLatency) {
  const MachineConfig base = MachineConfig::knl7210();
  const MachineConfig equal = MachineConfig::knl7210_equal_latency();
  EXPECT_EQ(equal.fast_tier().idle_latency_ns, base.dram_tier().idle_latency_ns);
  EXPECT_EQ(equal.fast_tier().stream_bw_gbs, base.fast_tier().stream_bw_gbs);
  EXPECT_EQ(equal.fast_tier().capacity_bytes, base.fast_tier().capacity_bytes);
}

TEST(MachinePresets, DdrOnlyShrinksHbmToASliver) {
  const MachineConfig ddr_only = MachineConfig::ddr_only();
  EXPECT_LE(ddr_only.fast_tier().capacity_bytes, params::kPageBytes);
  EXPECT_NO_THROW(Machine{ddr_only});
}

TEST(MachinePresets, Snc4KeepsMemoryEnvelopeIdentical) {
  // SNC-4 changes the directory path only: a pure streaming run must be
  // bit-identical to quadrant mode.
  Machine quadrant;
  Machine snc4(MachineConfig::knl7210_snc4());
  const workloads::StreamTriad stream(4ull << 30);
  const auto q = quadrant.run(stream.profile(), {MemConfig::HBM, 64});
  const auto s = snc4.run(stream.profile(), {MemConfig::HBM, 64});
  EXPECT_DOUBLE_EQ(q.seconds, s.seconds);
}

TEST(MachineDescribe, StableAcrossCalls) {
  Machine machine;
  EXPECT_EQ(machine.describe(), machine.describe());
  EXPECT_GT(machine.describe().size(), 200u);
}

TEST(MachineDescribe, ReflectsCustomConfig) {
  MachineConfig cfg;
  cfg.dram_tier().capacity_bytes = 48 * GiB;
  Machine machine(cfg);
  EXPECT_NE(machine.describe().find("48 GiB"), std::string::npos);
}

}  // namespace
}  // namespace knl
