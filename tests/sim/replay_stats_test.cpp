// Tests for the shared replay-statistics vocabulary.
#include "sim/replay_stats.hpp"

#include <gtest/gtest.h>

namespace knl::sim {
namespace {

TEST(ReplayStats, DerivedRatesFromCounters) {
  ReplayStats stats;
  stats.accesses = 1000;
  stats.memory_accesses = 500;
  stats.seconds = 1e-6;
  EXPECT_DOUBLE_EQ(stats.avg_access_ns(), 1.0);
  EXPECT_DOUBLE_EQ(stats.memory_bandwidth_gbs(),
                   500.0 * static_cast<double>(params::kLineBytes) / 1e3);
  ReplayStats empty;
  EXPECT_DOUBLE_EQ(empty.avg_access_ns(), 0.0);
  EXPECT_DOUBLE_EQ(empty.memory_bandwidth_gbs(), 0.0);
}

}  // namespace
}  // namespace knl::sim
