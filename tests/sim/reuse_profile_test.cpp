// Property tests for the single-pass reuse-distance profile: one replay of a
// trace must answer every capacity with exactly the hit counts the exact
// per-capacity simulators produce (LRU inclusion / Mattson), across
// geometries, sampling rates, strategies, chunk remainders, worker counts,
// skewed sets and slab growth.
#include "sim/reuse_profile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include "sim/cache.hpp"
#include "sim/simd.hpp"
#include "sim/tlb.hpp"
#include "trace/generators.hpp"
#include "trace/synth.hpp"
#include "workloads/gups.hpp"
#include "workloads/registry.hpp"
#include "workloads/stream.hpp"

namespace knl::sim {
namespace {

std::vector<std::uint64_t> mixed_trace(std::uint64_t bytes, std::uint64_t seed) {
  // A hostile mix: two sweeps (dense reuse at footprint distance), then
  // random touches (a spread of distances plus cold misses).
  std::vector<std::uint64_t> addrs;
  trace::generate_sweep(0, bytes, 64, 2, [&](std::uint64_t a) { addrs.push_back(a); });
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < addrs.size() / 2; ++i) {
    addrs.push_back((rng() % (2 * bytes)) & ~std::uint64_t{7});
  }
  return addrs;
}

ReuseProfileConfig geometry(std::uint64_t num_sets, std::uint64_t sample_every,
                            ReuseStrategy strategy = ReuseStrategy::kAuto) {
  ReuseProfileConfig config;
  config.line_bytes = 64;
  config.num_sets = num_sets;
  config.sample_every = sample_every;
  config.strategy = strategy;
  return config;
}

/// Counters and histogram equal, bucket for bucket.
void expect_same_profile(const ReuseProfile& a, const ReuseProfile& b) {
  EXPECT_EQ(a.sampled(), b.sampled());
  EXPECT_EQ(a.cold_misses(), b.cold_misses());
  EXPECT_EQ(a.beyond_depth(), b.beyond_depth());
  EXPECT_EQ(a.histogram(), b.histogram());
}

ReuseProfile observed(const std::vector<std::uint64_t>& addrs,
                      const ReuseProfileConfig& config) {
  ReuseProfile profile(config);
  profile.observe(addrs.data(), addrs.size());
  return profile;
}

/// The core property: profile once, then for every associativity the
/// histogram's prefix sum equals an exact replay at that capacity.
void expect_matches_reference(const std::vector<std::uint64_t>& addrs,
                              const ReuseProfileConfig& config,
                              const std::vector<std::uint64_t>& ways_list) {
  ReuseProfile profile(config);
  profile.observe(addrs.data(), addrs.size());
  for (const std::uint64_t ways : ways_list) {
    const CapacityReference ref =
        replay_capacity_reference(addrs.data(), addrs.size(), config, ways);
    EXPECT_EQ(ref.sampled, profile.sampled())
        << "sets=" << config.num_sets << " sample=" << config.sample_every
        << " ways=" << ways;
    EXPECT_EQ(ref.hits, profile.hits_for_ways(ways))
        << "sets=" << config.num_sets << " sample=" << config.sample_every
        << " ways=" << ways;
  }
}

TEST(ReuseProfile, MatchesCacheSimAcrossCapacities) {
  const auto addrs = mixed_trace(1 << 20, 42);
  // Pow2 associativities take the CacheSim (SoA/SIMD) reference; 3 and 6
  // take the bounded-MTF reference. All must agree with one histogram.
  expect_matches_reference(addrs, geometry(256, 1), {1, 2, 3, 4, 6, 8, 16});
}

TEST(ReuseProfile, MatchesCacheSimWithSetSampling) {
  const auto addrs = mixed_trace(1 << 20, 7);
  for (const std::uint64_t sample : {2ull, 4ull}) {
    expect_matches_reference(addrs, geometry(256, sample), {1, 2, 4, 8});
  }
}

TEST(ReuseProfile, MatchesReferenceForNonPow2Sets) {
  // Non-pow2 set counts force the scalar decompose path on both sides.
  const auto addrs = mixed_trace(1 << 19, 3);
  expect_matches_reference(addrs, geometry(100, 1), {1, 2, 3, 8});
  expect_matches_reference(addrs, geometry(100, 3), {2, 5});
}

TEST(ReuseProfile, ChunkRemaindersDoNotMatter) {
  // Streams not a multiple of the SoA chunk (1024) must profile identically
  // whether fed whole or in ragged pieces.
  auto addrs = mixed_trace(1 << 19, 9);
  addrs.resize(3 * 1024 + 517);
  ReuseProfile whole(geometry(128, 1));
  whole.observe(addrs.data(), addrs.size());
  ReuseProfile pieces(geometry(128, 1));
  std::size_t done = 0;
  for (const std::size_t step : {1000ull, 1ull, 2047ull, 500ull}) {
    const std::size_t n = std::min(step, addrs.size() - done);
    pieces.observe(addrs.data() + done, n);
    done += n;
  }
  pieces.observe(addrs.data() + done, addrs.size() - done);
  EXPECT_EQ(whole.sampled(), pieces.sampled());
  EXPECT_EQ(whole.cold_misses(), pieces.cold_misses());
  EXPECT_EQ(whole.histogram(), pieces.histogram());
}

TEST(ReuseProfile, StrategiesAgree) {
  // MTF and Fenwick implement the same stack algorithm; their histograms
  // must be equal bucket for bucket.
  const auto addrs = mixed_trace(1 << 19, 11);
  ReuseProfile mtf(geometry(64, 1, ReuseStrategy::kMtf));
  ReuseProfile fenwick(geometry(64, 1, ReuseStrategy::kFenwick));
  mtf.observe(addrs.data(), addrs.size());
  fenwick.observe(addrs.data(), addrs.size());
  EXPECT_EQ(mtf.sampled(), fenwick.sampled());
  EXPECT_EQ(mtf.cold_misses(), fenwick.cold_misses());
  EXPECT_EQ(mtf.histogram(), fenwick.histogram());
}

TEST(ReuseProfile, ParallelProfilingIsWorkerInvariant) {
  // Set-modular sharding: any worker count merges to the bit-identical
  // histogram (distances never cross sets), whether or not it divides the
  // set count, on both strategies and on the non-pow2 path.
  const auto addrs = mixed_trace(1 << 20, 13);
  for (const ReuseProfileConfig& config :
       {geometry(512, 1, ReuseStrategy::kMtf), geometry(512, 1, ReuseStrategy::kFenwick),
        geometry(600, 3, ReuseStrategy::kMtf)}) {
    const ReuseProfile serial = observed(addrs, config);
    for (const int workers : {1, 2, 3, 4, 5, 8, 16}) {
      SCOPED_TRACE(testing::Message() << "sets=" << config.num_sets << " strategy="
                                      << static_cast<int>(config.strategy) << " "
                                      << workers << " workers");
      expect_same_profile(serial,
                          profile_trace(addrs.data(), addrs.size(), config, workers));
    }
  }
}

TEST(ReuseProfile, ProfileTraceReturnsOnlyTheAnswer) {
  // A profile a cache keeps must not keep the pass's working state: no
  // rows, trees or scratch, and the same answers as the streaming profile.
  const auto addrs = mixed_trace(1 << 19, 31);
  for (const ReuseProfileConfig& config :
       {geometry(4096, 1), geometry(64, 1), geometry(4096, 4)}) {
    ReuseProfile streaming = observed(addrs, config);
    EXPECT_GT(streaming.working_bytes(), 0u);
    for (const int workers : {1, 3}) {
      ReuseProfile result = profile_trace(addrs.data(), addrs.size(), config, workers);
      EXPECT_EQ(result.working_bytes(), 0u);
      expect_same_profile(streaming, result);
      for (std::uint64_t ways = 1; ways <= streaming.histogram().size() + 1; ++ways) {
        EXPECT_EQ(streaming.hits_for_ways(ways), result.hits_for_ways(ways));
      }
      EXPECT_THROW(result.observe(addrs.data(), 1), std::logic_error);
      result.reset();
      result.observe(addrs.data(), addrs.size());
      expect_same_profile(streaming, result);
    }
    streaming.seal();
    EXPECT_EQ(streaming.working_bytes(), 0u);
  }
}

TEST(ReuseProfile, OneDeepSetKeepsWorkingMemoryLinearInDistinctTags) {
  // Every address maps to one set of 2^15: that set's recency list grows
  // far past the slab's row capacity while the other rows stay empty, so
  // it must not widen every row to its depth.
  constexpr std::uint64_t kSets = 1ull << 15;
  constexpr std::uint64_t kDistinct = 3000;
  constexpr std::uint64_t kSet = 5;
  std::mt19937_64 rng(37);
  std::vector<std::uint64_t> addrs;
  const auto address = [](std::uint64_t tag) { return (tag * kSets + kSet) * 64; };
  for (std::uint64_t t = 0; t < kDistinct; ++t) addrs.push_back(address(t));
  for (int i = 0; i < 20000; ++i) addrs.push_back(address(rng() % kDistinct));
  for (std::uint64_t t = 0; t < kDistinct; ++t) addrs.push_back(address(t));

  const ReuseProfile mtf = observed(addrs, geometry(kSets, 1, ReuseStrategy::kMtf));
  expect_same_profile(observed(addrs, geometry(kSets, 1, ReuseStrategy::kFenwick)), mtf);
  EXPECT_EQ(mtf.cold_misses(), kDistinct);
  EXPECT_GT(mtf.histogram().size(), kDistinct / 2);

  // The floor is the working state of the same geometry holding one tag.
  const ReuseProfile floor = observed({addrs.front()}, geometry(kSets, 1, ReuseStrategy::kMtf));
  EXPECT_LE(mtf.working_bytes(),
            floor.working_bytes() + 4 * kDistinct * sizeof(std::uint64_t));
}

TEST(ReuseProfile, SplitObserveAcrossSlabGrowth) {
  // Streaming contract across a slab re-layout: split calls whose boundary
  // falls right on a growth concatenate to the whole-stream profile.
  const auto addrs = mixed_trace(1 << 20, 41);
  const ReuseProfileConfig config = geometry(1024, 1, ReuseStrategy::kMtf);
  const ReuseProfile whole = observed(addrs, config);
  expect_same_profile(observed(addrs, geometry(1024, 1, ReuseStrategy::kFenwick)), whole);

  // Find the growths: a slab doubling at least doubles the working bytes
  // of the fresh profile.
  ReuseProfile probe(config);
  probe.observe(addrs.data(), 1);
  std::size_t bytes = probe.working_bytes();
  const std::size_t floor_bytes = bytes;
  std::vector<std::size_t> growths;
  for (std::size_t i = 1; i < addrs.size(); ++i) {
    probe.observe(addrs.data() + i, 1);
    if (probe.working_bytes() >= bytes + floor_bytes / 2) growths.push_back(i);
    bytes = probe.working_bytes();
  }
  expect_same_profile(whole, probe);
  ASSERT_GE(growths.size(), 2u);
  for (const std::size_t at : growths) {
    for (const std::size_t split : {at, at + 1}) {
      ReuseProfile pieces(config);
      pieces.observe(addrs.data(), split);
      pieces.observe(addrs.data() + split, addrs.size() - split);
      SCOPED_TRACE(testing::Message() << "split at " << split);
      expect_same_profile(whole, pieces);
    }
  }
}

/// A profile committed to `addrs` by reserve_rows(), as profile_trace()
/// commits its passes, then fed the whole stream.
ReuseProfile presized(const std::vector<std::uint64_t>& addrs,
                      const ReuseProfileConfig& config) {
  ReuseProfile profile(config);
  profile.reserve_rows(*std::max_element(addrs.begin(), addrs.end()), addrs.size());
  profile.observe(addrs.data(), addrs.size());
  return profile;
}

TEST(ReuseProfile, PresizedProfileTraceMatchesPlainObserveOnRegistryTraces) {
  // profile_trace sizes every shard's rows to the trace's tag bound; the
  // histograms must not notice, whichever workload made the trace, whether
  // the bound was taken or declined, and at any worker count. At 8 MiB and
  // 2^16 addresses the sampled geometry always takes the bound; the
  // unsampled ones decline it on the traces that span all 8 MiB (GUPS,
  // Graph500, XSBench, the latency probe: 2^17 slots > 2^16 addresses).
  trace::SynthOptions options;
  options.max_addresses = 1u << 16;
  for (const auto& entry : workloads::registry()) {
    const std::vector<std::uint64_t> addrs =
        trace::synthesize_trace(entry.make(8ull << 20)->profile(), options);
    for (const ReuseProfileConfig& config :
         {geometry(4096, 1), geometry(8192, 4), geometry(1024, 1, ReuseStrategy::kMtf)}) {
      const ReuseProfile plain = observed(addrs, config);
      for (const int workers : {1, 2, 3, 4, 8}) {
        SCOPED_TRACE(testing::Message() << entry.info.name << " sets=" << config.num_sets
                                        << " sample=" << config.sample_every << " "
                                        << workers << " workers");
        expect_same_profile(plain,
                            profile_trace(addrs.data(), addrs.size(), config, workers));
      }
    }
  }
}

TEST(ReuseProfile, PresizedCapacityGridRowsNeverRegrow) {
  // The capacity benchmark's two grids: 2^18 addresses over 8192 sets, GUPS
  // over 16 MiB (tags below 16 MiB / 64 B / 8192 = 32) and STREAM over
  // 4 MiB (tags below 8, every set sweeping all of them). Both take the
  // stamp table: one 4-byte stamp per set and possible tag, allocated on the
  // first address and never regrown, so it holds at most one 4-byte slot per
  // address (GUPS: 1 MiB).
  trace::SynthOptions options;
  options.max_addresses = 1u << 18;
  for (const trace::AccessProfile& workload :
       {workloads::Gups(16ull << 20).profile(), workloads::StreamTriad(4ull << 20).profile()}) {
    SCOPED_TRACE(workload.name());
    const std::vector<std::uint64_t> addrs = trace::synthesize_trace(workload, options);
    const ReuseProfileConfig config = geometry(8192, 1);
    const ReuseProfile profile = presized(addrs, config);
    expect_same_profile(observed(addrs, config), profile);

    ReuseProfile first(config);
    first.reserve_rows(*std::max_element(addrs.begin(), addrs.end()), addrs.size());
    first.observe(addrs.data(), 1);
    EXPECT_EQ(profile.working_bytes(), first.working_bytes());
    const std::size_t scratch = 2 * simd::kSoaChunk * sizeof(std::uint64_t);
    EXPECT_LE(profile.working_bytes(), addrs.size() * sizeof(std::uint32_t) + scratch);
  }
}

TEST(ReuseProfile, FootprintFarLargerThanTheTraceKeepsDoublingRows) {
  // 2^14 addresses over 1 GiB: rows as wide as the tag bound (4096 tags
  // over 4096 sets) would cost 1024 slots per address, so the sizing is
  // declined and the slab starts small and doubles exactly as plain
  // observe() does.
  std::mt19937_64 rng(53);
  std::vector<std::uint64_t> addrs;
  for (int i = 0; i < (1 << 14); ++i) addrs.push_back(rng() % (1ull << 30));
  const ReuseProfileConfig config = geometry(4096, 1, ReuseStrategy::kMtf);
  const ReuseProfile plain = observed(addrs, config);
  const ReuseProfile profile = presized(addrs, config);
  expect_same_profile(plain, profile);
  EXPECT_EQ(profile.working_bytes(), plain.working_bytes());
  EXPECT_GT(profile.working_bytes(), observed({addrs.front()}, config).working_bytes());

  ReuseProfile started = observed(addrs, config);
  EXPECT_THROW(started.reserve_rows(addrs.front(), addrs.size()), std::logic_error);
}

/// `2 * tag_bound * num_sets` random addresses below tag_bound * num_sets
/// lines, the last line included, so every set sees about twice as many
/// accesses as it has possible tags: reuse at every distance below the
/// bound, cold misses, and a trace that takes the stamp table.
std::vector<std::uint64_t> dense_trace(std::uint64_t num_sets, std::uint64_t tag_bound,
                                       std::uint64_t seed) {
  const std::uint64_t lines = tag_bound * num_sets;
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> addrs;
  for (std::uint64_t i = 0; i < 2 * lines; ++i) {
    addrs.push_back((rng() % lines) * 64 + (rng() % 8) * 8);
  }
  addrs[addrs.size() / 2] = lines * 64 - 8;
  return addrs;
}

TEST(ReuseProfile, StampTableMatchesFenwickAcrossDenseGeometries) {
  // Tag bounds on both sides of the table's 8-slot padding, pow2 set
  // counts through the SIMD decompose and 5000 through the scalar one,
  // sampled and unsampled, sharded and not: the table's histogram equals
  // the Fenwick pass bucket for bucket and the per-cell replay at every
  // checked way count.
  struct Case {
    std::uint64_t num_sets;
    std::uint64_t tag_bound;
  };
  std::vector<Case> cases;
  for (const std::uint64_t bound : {1ull, 7ull, 8ull, 9ull, 31ull, 32ull, 33ull}) {
    cases.push_back({4096, bound});
  }
  cases.push_back({8192, 8});
  cases.push_back({8192, 33});
  cases.push_back({5000, 7});
  cases.push_back({5000, 9});
  for (const Case& c : cases) {
    const std::vector<std::uint64_t> addrs = dense_trace(c.num_sets, c.tag_bound, c.tag_bound);
    for (const std::uint64_t sample : {1ull, 4ull}) {
      SCOPED_TRACE(testing::Message() << "sets=" << c.num_sets << " tag bound="
                                      << c.tag_bound << " sample_every=" << sample);
      const ReuseProfileConfig config = geometry(c.num_sets, sample);
      const ReuseProfile fenwick =
          observed(addrs, geometry(c.num_sets, sample, ReuseStrategy::kFenwick));
      EXPECT_GT(fenwick.reuses(), 0u);

      // The table was taken: one 4-byte slot per sampled set and padded tag.
      const ReuseProfile table = presized(addrs, config);
      const std::uint64_t sampled_sets = (c.num_sets + sample - 1) / sample;
      const std::uint64_t width = (c.tag_bound + 7) / 8 * 8;
      EXPECT_EQ(table.working_bytes(),
                sampled_sets * width * sizeof(std::uint32_t) +
                    2 * simd::kSoaChunk * sizeof(std::uint64_t));
      expect_same_profile(fenwick, table);
      for (const int workers : {1, 2, 3, 5}) {
        SCOPED_TRACE(testing::Message() << workers << " workers");
        expect_same_profile(fenwick,
                            profile_trace(addrs.data(), addrs.size(), config, workers));
      }
      for (const std::uint64_t ways : {1ull, 3ull, 8ull}) {
        const CapacityReference ref =
            replay_capacity_reference(addrs.data(), addrs.size(), config, ways);
        EXPECT_EQ(ref.sampled, table.sampled()) << "ways=" << ways;
        EXPECT_EQ(ref.hits, table.hits_for_ways(ways)) << "ways=" << ways;
      }
    }
  }

  const std::vector<std::uint64_t> addrs = dense_trace(4096, 31, 5);
  const std::uint64_t top = *std::max_element(addrs.begin(), addrs.end());

  // A max_depth below the tag bound: the deep reuses land beyond it.
  ReuseProfileConfig shallow = geometry(4096, 1);
  shallow.max_depth = 5;
  ReuseProfileConfig shallow_fenwick = shallow;
  shallow_fenwick.strategy = ReuseStrategy::kFenwick;
  const ReuseProfile shallow_table = presized(addrs, shallow);
  expect_same_profile(observed(addrs, shallow_fenwick), shallow_table);
  EXPECT_GT(shallow_table.beyond_depth(), 0u);
  EXPECT_EQ(shallow_table.histogram().size(), 5u);

  // observe() split anywhere inside the committed stream concatenates.
  const ReuseProfile whole = presized(addrs, geometry(4096, 1));
  for (const std::size_t split : {std::size_t{1}, std::size_t{1023}, addrs.size() / 2,
                                  addrs.size() - 1}) {
    SCOPED_TRACE(testing::Message() << "split at " << split);
    ReuseProfile pieces(geometry(4096, 1));
    pieces.reserve_rows(top, addrs.size());
    pieces.observe(addrs.data(), split);
    pieces.observe(addrs.data() + split, addrs.size() - split);
    expect_same_profile(whole, pieces);
  }
}

TEST(ReuseProfile, StampTableRejectsAStreamPastItsCommitment) {
  // reserve_rows() commits the profile to at most n addresses, none above
  // the max; the table's rows hold no slot past that max's tag. The same
  // commitment holds on a pass that keeps the Fenwick trees.
  std::vector<std::uint64_t> addrs = dense_trace(4096, 8, 67);
  const std::uint64_t top = *std::max_element(addrs.begin(), addrs.end());
  const std::size_t n = addrs.size();
  addrs.push_back(addrs.front());  // address n + 1
  const std::uint64_t above = top + 1;
  for (const ReuseProfileConfig& config : {geometry(4096, 1), geometry(64, 1)}) {
    SCOPED_TRACE(testing::Message() << "sets=" << config.num_sets);
    const ReuseProfile plain = observed(std::vector(addrs.begin(), addrs.end() - 1), config);

    ReuseProfile full(config);
    full.reserve_rows(top, n);
    full.observe(addrs.data(), n);
    expect_same_profile(plain, full);
    EXPECT_THROW(full.observe(addrs.data() + n, 1), std::logic_error);
    expect_same_profile(plain, full);

    ReuseProfile at_once(config);
    at_once.reserve_rows(top, n);
    EXPECT_THROW(at_once.observe(addrs.data(), n + 1), std::logic_error);
    EXPECT_EQ(at_once.sampled(), 0u);

    ReuseProfile high(config);
    high.reserve_rows(top, n);
    high.observe(addrs.data(), n - 1);
    EXPECT_THROW(high.observe(&above, 1), std::logic_error);
    high.reset();
    high.observe(&above, 1);  // reset() drops the commitment
    EXPECT_EQ(high.sampled(), 1u);
  }
}

TEST(ReuseProfile, NonPow2SetsTakeTheSlabThroughTheScalarPath) {
  // 5000 sets is past the kAuto threshold but not a power of two: the
  // scalar decompose feeds the slab, sampled and unsampled.
  const auto addrs = mixed_trace(1 << 20, 43);
  for (const std::uint64_t sample : {1ull, 3ull}) {
    SCOPED_TRACE(testing::Message() << "sample_every=" << sample);
    const ReuseProfile mtf = observed(addrs, geometry(5000, sample));
    expect_same_profile(observed(addrs, geometry(5000, sample, ReuseStrategy::kFenwick)),
                        mtf);
    EXPECT_GT(mtf.reuses(), 0u);
  }
  expect_matches_reference(addrs, geometry(5000, 3), {1, 2, 3});
}

TEST(ReuseProfile, MatchesTlbSimAsFullyAssociativeLru) {
  // Cross-validation against an independent exact LRU: a TLB of E entries is
  // a fully-associative E-way cache of pages, i.e. num_sets=1 at page
  // granularity.
  TlbConfig tlb_config;
  tlb_config.page_bytes = 4096;
  tlb_config.entries = 64;
  TlbSim tlb(tlb_config);

  ReuseProfileConfig config;
  config.line_bytes = 4096;
  config.num_sets = 1;
  ReuseProfile profile(config);

  std::mt19937_64 rng(17);
  std::vector<std::uint64_t> addrs;
  for (int i = 0; i < 200000; ++i) {
    addrs.push_back(rng() % (512ull * 4096));
  }
  for (const std::uint64_t a : addrs) tlb.access(a);
  profile.observe(addrs.data(), addrs.size());

  EXPECT_EQ(profile.sampled(), tlb.accesses());
  EXPECT_EQ(profile.hits_for_ways(static_cast<std::uint64_t>(tlb_config.entries)),
            tlb.accesses() - tlb.misses());
}

TEST(ReuseProfile, AccountingIdentities) {
  const auto addrs = mixed_trace(1 << 18, 23);
  ReuseProfile profile(geometry(32, 1));
  profile.observe(addrs.data(), addrs.size());
  EXPECT_EQ(profile.sampled(), profile.cold_misses() + profile.reuses());
  std::uint64_t histogram_total = 0;
  for (const std::uint64_t count : profile.histogram()) histogram_total += count;
  EXPECT_EQ(histogram_total + profile.beyond_depth(), profile.reuses());
  // Hit counts are monotone in ways and saturate at the reuse count.
  std::uint64_t previous = 0;
  for (std::uint64_t ways = 1; ways <= 64; ways *= 2) {
    const std::uint64_t hits = profile.hits_for_ways(ways);
    EXPECT_GE(hits, previous);
    previous = hits;
  }
  EXPECT_LE(previous, profile.reuses());
}

TEST(ReuseProfile, DepthLimitAndValidation) {
  ReuseProfileConfig shallow = geometry(1, 1);
  shallow.max_depth = 4;
  ReuseProfile profile(shallow);
  // 8 lines swept twice: every reuse distance is 7, beyond max_depth.
  std::vector<std::uint64_t> addrs;
  trace::generate_sweep(0, 8 * 64, 64, 2, [&](std::uint64_t a) { addrs.push_back(a); });
  profile.observe(addrs.data(), addrs.size());
  EXPECT_EQ(profile.beyond_depth(), 8u);
  EXPECT_EQ(profile.hits_for_ways(4), 0u);
  EXPECT_THROW((void)profile.hits_for_ways(5), std::invalid_argument);

  EXPECT_THROW(ReuseProfile(geometry(0, 1)), std::invalid_argument);
  ReuseProfileConfig bad_line = geometry(4, 1);
  bad_line.line_bytes = 96;
  EXPECT_THROW(ReuseProfile{bad_line}, std::invalid_argument);
  EXPECT_THROW((void)replay_capacity_reference(addrs.data(), addrs.size(), shallow, 0),
               std::invalid_argument);
}

TEST(ReuseProfile, MergeAndResetRoundTrip) {
  const auto addrs = mixed_trace(1 << 18, 29);
  ReuseProfile whole(geometry(64, 1));
  whole.observe(addrs.data(), addrs.size());

  // Shard phases partition the sampled sets; merging them reproduces the
  // whole profile exactly.
  ReuseProfile merged(geometry(64, 1));
  for (std::uint64_t phase = 0; phase < 4; ++phase) {
    ReuseProfileConfig config = geometry(64, 1);
    config.shard_stride = 4;
    config.shard_phase = phase;
    ReuseProfile part(config);
    part.observe(addrs.data(), addrs.size());
    merged.merge(part);
  }
  EXPECT_EQ(whole.sampled(), merged.sampled());
  EXPECT_EQ(whole.histogram(), merged.histogram());

  merged.reset();
  EXPECT_EQ(merged.sampled(), 0u);
  EXPECT_TRUE(merged.histogram().empty());
  merged.observe(addrs.data(), addrs.size());
  EXPECT_EQ(whole.histogram(), merged.histogram());

  ReuseProfile other_geometry(geometry(32, 1));
  EXPECT_THROW(merged.merge(other_geometry), std::invalid_argument);
}

}  // namespace
}  // namespace knl::sim
