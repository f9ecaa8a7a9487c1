// Tests for the workload registry (Table I inventory + factories).
#include "workloads/registry.hpp"

#include <gtest/gtest.h>

#include "core/types.hpp"

namespace knl::workloads {
namespace {

TEST(Registry, ContainsAllTableOneApplicationsPlusMicrobenchmarks) {
  const auto& reg = registry();
  ASSERT_EQ(reg.size(), 7u);
  EXPECT_EQ(reg[0].info.name, "DGEMM");
  EXPECT_EQ(reg[1].info.name, "MiniFE");
  EXPECT_EQ(reg[2].info.name, "GUPS");
  EXPECT_EQ(reg[3].info.name, "Graph500");
  EXPECT_EQ(reg[4].info.name, "XSBench");
}

TEST(Registry, FindByName) {
  EXPECT_EQ(find_workload("GUPS").info.access_pattern, "Random");
  EXPECT_EQ(find_workload("MiniFE").info.access_pattern, "Sequential");
  EXPECT_THROW((void)find_workload("nope"), std::invalid_argument);
}

TEST(Registry, FactoriesProduceRequestedScale) {
  for (const auto& entry : registry()) {
    const auto w = entry.make(2 * GiB);
    ASSERT_NE(w, nullptr) << entry.info.name;
    EXPECT_EQ(w->info().name, entry.info.name);
    // Footprint within 3x either way of the request (scale quantization).
    const double fp = static_cast<double>(w->footprint_bytes());
    EXPECT_GT(fp, 2.0 * GiB / 3.0) << entry.info.name;
    EXPECT_LT(fp, 3.0 * 2.0 * GiB) << entry.info.name;
  }
}

TEST(Registry, AllWorkloadsVerify) {
  // Every workload's real algorithm passes its own correctness check at
  // test scale — the "the kernel we model is the kernel we run" guarantee.
  for (const auto& entry : registry()) {
    const auto w = entry.make(64 * MiB);
    EXPECT_NO_THROW(w->verify()) << entry.info.name;
  }
}

TEST(Registry, ProfilesAreNonEmptyAtPaperScales) {
  for (const auto& entry : registry()) {
    const auto w = entry.make(entry.info.max_scale_bytes);
    const auto p = w->profile();
    EXPECT_FALSE(p.empty()) << entry.info.name;
    EXPECT_GT(p.resident_bytes(), 0u) << entry.info.name;
  }
}

}  // namespace
}  // namespace knl::workloads
