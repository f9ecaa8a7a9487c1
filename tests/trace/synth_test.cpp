// Pinned synthesized traces: a digest of synthesize_trace's stream for every
// registry workload at three SynthOptions. The single-pass sweep engine, the
// per-cell reference and every SweepCache entry key on these streams, so a
// change to any generator (the random draws, the chase permutation, the
// phase budgets) shows up here as a changed digest. The values were recorded
// from the std::mt19937_64 + std::uniform_int_distribution generators of
// libstdc++ that the in-repo Mt19937_64 replaced, so they also prove the
// replacement emits the same bytes.
#include "trace/synth.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "workloads/registry.hpp"

namespace knl::trace {
namespace {

constexpr std::uint64_t kFootprint = 8ull << 20;

std::uint64_t digest(const std::vector<std::uint64_t>& addrs) {
  // splitmix64's finalizer over the running state, seeded with the length.
  std::uint64_t h = addrs.size();
  for (const std::uint64_t a : addrs) {
    h ^= a;
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebull;
    h ^= h >> 31;
  }
  return h;
}

struct Pinned {
  const char* workload;
  std::uint64_t size_default, digest_default;
  std::uint64_t size_seed777, digest_seed777;
  std::uint64_t size_max4096, digest_max4096;
};

// Registry order, each workload built at kFootprint.
constexpr Pinned kPinned[] = {
    {"DGEMM", 1178820, 0x0f26d9fa047a863full, 1178820, 0x0f26d9fa047a863full, 4096,
     0xc883676d4c3a1145ull},
    {"MiniFE", 4194303, 0x23f919d8546586e6ull, 4194303, 0x23f919d8546586e6ull, 4095,
     0x7a4b3cfdc5fed3d4ull},
    {"GUPS", 4194304, 0x77acfdb8c7acacbaull, 4194304, 0xe70fa417a43bc393ull, 4096,
     0x27615917dabf784aull},
    {"Graph500", 4194303, 0xeac84faa6155a7ccull, 4194303, 0x87525e139628f6feull, 4095,
     0xd06901a8656980fcull},
    {"XSBench", 4194303, 0x1cd6726f9deda88eull, 4194303, 0xcd5816da386cf32aull, 4095,
     0xab276c8dc5c6bd58ull},
    {"STREAM", 1310720, 0xcdb421aea9a6117full, 1310720, 0xcdb421aea9a6117full, 4096,
     0xc883676d4c3a1145ull},
    {"TinyMemBench (dual random read)", 524288, 0xdd587f45fb5731b2ull, 524288,
     0x5ba81390f7367180ull, 4096, 0x25235a3235816708ull},
};

TEST(SynthesizeTrace, StreamsArePinnedForEveryRegistryWorkload) {
  const auto& registry = workloads::registry();
  ASSERT_EQ(registry.size(), std::size(kPinned));
  SynthOptions seeded;
  seeded.seed = 777;
  SynthOptions small;
  small.max_addresses = 4096;
  for (std::size_t w = 0; w < registry.size(); ++w) {
    const Pinned& pin = kPinned[w];
    ASSERT_EQ(registry[w].info.name, pin.workload);
    const AccessProfile profile = registry[w].make(kFootprint)->profile();
    SCOPED_TRACE(pin.workload);
    const auto at_default = synthesize_trace(profile);
    const auto at_seed = synthesize_trace(profile, seeded);
    const auto at_small = synthesize_trace(profile, small);
    EXPECT_EQ(at_default.size(), pin.size_default);
    EXPECT_EQ(digest(at_default), pin.digest_default);
    EXPECT_EQ(at_seed.size(), pin.size_seed777);
    EXPECT_EQ(digest(at_seed), pin.digest_seed777);
    EXPECT_EQ(at_small.size(), pin.size_max4096);
    EXPECT_EQ(digest(at_small), pin.digest_max4096);
  }
}

}  // namespace
}  // namespace knl::trace
