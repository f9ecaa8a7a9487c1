// Concurrent reads of one ReuseProfile.
//
// The SweepCache hands one cached profile to every service query whose grid
// shares its fingerprint, and those queries derive their cells concurrently,
// so hits_for_ways must be a pure read.
// Run under the TSan CI job: a lazily built cache behind the const API
// shows up there as a data race even when the answers happen to agree.
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <latch>
#include <vector>

#include "core/thread_pool.hpp"
#include "sim/reuse_profile.hpp"
#include "trace/synth.hpp"
#include "workloads/gups.hpp"

namespace knl {
namespace {

constexpr int kWorkers = 4;
constexpr std::uint64_t kMaxWays = 16;

sim::ReuseProfile fresh_profile(const std::vector<std::uint64_t>& addrs) {
  sim::ReuseProfileConfig config;
  config.line_bytes = 64;
  config.num_sets = 64;
  sim::ReuseProfile profile(config);
  profile.observe(addrs);
  return profile;
}

std::vector<std::uint64_t> gups_trace() {
  trace::SynthOptions options;
  options.max_addresses = 1u << 16;
  return trace::synthesize_trace(workloads::Gups(1 << 20).profile(), options);
}

TEST(ReuseProfileConcurrency, HitsForWaysIsAPureReadUnderConcurrentQueries) {
  const std::vector<std::uint64_t> addrs = gups_trace();
  std::vector<std::uint64_t> serial;
  const sim::ReuseProfile reference = fresh_profile(addrs);
  for (std::uint64_t ways = 1; ways <= kMaxWays; ++ways) {
    serial.push_back(reference.hits_for_ways(ways));
  }
  ASSERT_GT(serial.back(), 0u);

  // A second, never-queried profile: the first query on it races with the
  // others, as concurrent service queries on a freshly cached profile do.
  const sim::ReuseProfile shared = fresh_profile(addrs);
  core::ThreadPool pool(kWorkers);
  std::latch start(kWorkers);
  std::vector<std::future<std::vector<std::uint64_t>>> answers;
  for (int w = 0; w < kWorkers; ++w) {
    answers.push_back(pool.submit([&shared, &start] {
      start.arrive_and_wait();
      std::vector<std::uint64_t> hits;
      for (std::uint64_t ways = 1; ways <= kMaxWays; ++ways) {
        hits.push_back(shared.hits_for_ways(ways));
      }
      return hits;
    }));
  }
  for (auto& answer : answers) EXPECT_EQ(answer.get(), serial);
}

}  // namespace
}  // namespace knl
