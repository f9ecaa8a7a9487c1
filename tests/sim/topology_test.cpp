// Declared-topology tests: structural validation slugs, machine-file
// round-trips (exact, including awkward doubles, via a seeded property
// sweep), the shipped machine profiles, and waterfall placement accounting.
// The machine-file format is the repository's external machine interface
// (machines/*.machine), so parse/serialize must be exact inverses — any
// drift here silently re-parameterizes a simulated machine.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/fault/error.hpp"
#include "core/types.hpp"
#include "sim/topology.hpp"

namespace knl::sim {
namespace {

/// A minimal valid two-tier topology the rejection tests mutate.
MemoryTopology small_two_tier() {
  MemoryTopology topology;
  topology.name = "testbox";
  topology.tiers = {
      MemoryTier{.name = "FAST",
                 .kind = TierKind::HBM,
                 .params = params::NodeParams{.capacity_bytes = 4 * GiB,
                                              .peak_bw_gbs = 400.0,
                                              .stream_bw_gbs = 380.0,
                                              .random_bw_gbs = 200.0,
                                              .idle_latency_ns = 150.0},
                 .controllers_begin = 0,
                 .controllers_end = 2,
                 .backing = 1,
                 .cache_front = true},
      MemoryTier{.name = "SLOW",
                 .kind = TierKind::DRAM,
                 .params = params::NodeParams{.capacity_bytes = 32 * GiB,
                                              .peak_bw_gbs = 90.0,
                                              .stream_bw_gbs = 77.0,
                                              .random_bw_gbs = 40.0,
                                              .idle_latency_ns = 130.0},
                 .controllers_begin = 2,
                 .controllers_end = 6,
                 .backing = -1,
                 .cache_front = false},
  };
  return topology;
}

/// The rejection tests all follow the same shape: mutate a valid topology,
/// expect CorruptInput with a specific slug.
void expect_rejected(const MemoryTopology& topology, const std::string& slug) {
  try {
    topology.validate();
    FAIL() << "expected validate() to reject with slug " << slug;
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::CorruptInput) << e.what();
    EXPECT_EQ(e.code(), slug) << e.what();
  }
}

TEST(Topology, TierKindNames) {
  EXPECT_EQ(to_string(TierKind::HBM), "hbm");
  EXPECT_EQ(to_string(TierKind::DRAM), "dram");
  EXPECT_EQ(to_string(TierKind::NVM), "nvm");
}

// ---------------------------------------------------------------------------
// Shipped profiles
// ---------------------------------------------------------------------------

TEST(Topology, Knl7210ProfileShape) {
  const MemoryTopology knl = MemoryTopology::knl7210();
  ASSERT_NO_THROW(knl.validate());
  ASSERT_EQ(knl.tier_count(), 2u);
  EXPECT_EQ(knl.name, "knl7210");
  EXPECT_EQ(knl.tier_names(), "MCDRAM,DDR4");
  EXPECT_EQ(knl.fast_tier(), 0);
  EXPECT_EQ(knl.dram_tier(), 1);
  EXPECT_EQ(knl.cache_front_of(1), 0);
  EXPECT_EQ(knl.cache_front_of(0), -1);
  EXPECT_EQ(knl.spill_chain(0), (std::vector<int>{0, 1}));
  // The declared envelope is *exactly* the calibrated KNL parameters —
  // this identity is what keeps the goldens stable through the topology path.
  EXPECT_TRUE(knl.tier(0).params == params::kHbm);
  EXPECT_TRUE(knl.tier(1).params == params::kDdr);
  EXPECT_EQ(knl.tier(0).controllers(), 8);
  EXPECT_EQ(knl.tier(1).controllers(), 6);
}

TEST(Topology, XeonMaxProfileShape) {
  const MemoryTopology xeon = MemoryTopology::xeon_max();
  ASSERT_NO_THROW(xeon.validate());
  ASSERT_EQ(xeon.tier_count(), 2u);
  EXPECT_EQ(xeon.tier_names(), "HBM2e,DDR5");
  EXPECT_EQ(xeon.fast_tier(), 0);
  EXPECT_EQ(xeon.dram_tier(), 1);
  EXPECT_TRUE(xeon.tier(0).cache_front);
  EXPECT_EQ(xeon.tier(0).params.capacity_bytes, 64 * GiB);
  EXPECT_EQ(xeon.tier(1).params.capacity_bytes, 512 * GiB);
  EXPECT_GT(xeon.tier(0).params.stream_bw_gbs, xeon.tier(1).params.stream_bw_gbs);
}

TEST(Topology, KnlNvmProfileShape) {
  const MemoryTopology nvm = MemoryTopology::knl_nvm();
  ASSERT_NO_THROW(nvm.validate());
  ASSERT_EQ(nvm.tier_count(), 3u);
  EXPECT_EQ(nvm.tier_names(), "MCDRAM,DDR4,NVM");
  EXPECT_EQ(nvm.fast_tier(), 0);
  EXPECT_EQ(nvm.dram_tier(), 1);
  // The defining feature: DDR4 overflow spills to NVM instead of failing.
  EXPECT_EQ(nvm.spill_chain(0), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(nvm.spill_chain(1), (std::vector<int>{1, 2}));
  EXPECT_EQ(nvm.tier(2).kind, TierKind::NVM);
  EXPECT_EQ(nvm.tier(2).backing, -1);
  EXPECT_LT(nvm.tier(2).params.stream_bw_gbs, nvm.tier(1).params.stream_bw_gbs);
  EXPECT_GT(nvm.tier(2).params.idle_latency_ns, nvm.tier(1).params.idle_latency_ns);
  // First two tiers are exactly the KNL testbed (plus the spill edge).
  MemoryTopology knl = MemoryTopology::knl7210();
  knl.tiers[1].backing = 2;
  EXPECT_TRUE(nvm.tier(0) == knl.tiers[0]);
  EXPECT_TRUE(nvm.tier(1) == knl.tiers[1]);
}

// ---------------------------------------------------------------------------
// Validation rejections: one test per stable slug
// ---------------------------------------------------------------------------

TEST(TopologyValidate, RejectsEmptyTopology) {
  MemoryTopology topology;
  topology.tiers.clear();
  expect_rejected(topology, "topology/empty");
}

TEST(TopologyValidate, RejectsDuplicateTierNames) {
  MemoryTopology topology = small_two_tier();
  topology.tiers[1].name = topology.tiers[0].name;
  expect_rejected(topology, "topology/duplicate-name");
}

TEST(TopologyValidate, RejectsEmptyTierName) {
  MemoryTopology topology = small_two_tier();
  topology.tiers[0].name.clear();
  expect_rejected(topology, "topology/duplicate-name");
}

TEST(TopologyValidate, RejectsZeroCapacity) {
  MemoryTopology topology = small_two_tier();
  topology.tiers[0].params.capacity_bytes = 0;
  expect_rejected(topology, "topology/zero-capacity");
}

TEST(TopologyValidate, RejectsNonPositiveEnvelope) {
  MemoryTopology topology = small_two_tier();
  topology.tiers[1].params.stream_bw_gbs = 0.0;
  expect_rejected(topology, "topology/bad-envelope");
  topology = small_two_tier();
  topology.tiers[0].params.idle_latency_ns = -1.0;
  expect_rejected(topology, "topology/bad-envelope");
  topology = small_two_tier();
  topology.tiers[0].params.peak_bw_gbs = std::numeric_limits<double>::infinity();
  expect_rejected(topology, "topology/bad-envelope");
  topology = small_two_tier();
  topology.tiers[1].params.random_bw_gbs = std::numeric_limits<double>::quiet_NaN();
  expect_rejected(topology, "topology/bad-envelope");
}

TEST(TopologyValidate, RejectsEmptyControllerRange) {
  MemoryTopology topology = small_two_tier();
  topology.tiers[0].controllers_end = topology.tiers[0].controllers_begin;
  expect_rejected(topology, "topology/bad-range");
  topology = small_two_tier();
  topology.tiers[0].controllers_begin = -1;
  expect_rejected(topology, "topology/bad-range");
}

TEST(TopologyValidate, RejectsOverlappingControllerRanges) {
  MemoryTopology topology = small_two_tier();
  topology.tiers[1].controllers_begin = 1;  // intersects FAST's [0, 2)
  expect_rejected(topology, "topology/overlapping-ranges");
}

TEST(TopologyValidate, RejectsBackingOutOfRangeOrSelf) {
  MemoryTopology topology = small_two_tier();
  topology.tiers[1].backing = 7;
  expect_rejected(topology, "topology/bad-backing");
  topology = small_two_tier();
  topology.tiers[1].backing = 1;  // self
  expect_rejected(topology, "topology/bad-backing");
}

TEST(TopologyValidate, RejectsBackingCycle) {
  MemoryTopology topology = small_two_tier();
  topology.tiers[0].cache_front = false;
  topology.tiers[1].backing = 0;  // FAST -> SLOW -> FAST
  expect_rejected(topology, "topology/backing-cycle");
}

TEST(TopologyValidate, RejectsCacheFrontWithoutBacking) {
  MemoryTopology topology = small_two_tier();
  topology.tiers[0].backing = -1;  // still cache_front
  expect_rejected(topology, "topology/bad-cache-front");
}

// ---------------------------------------------------------------------------
// Machine-file round trip
// ---------------------------------------------------------------------------

TEST(TopologyMachineFile, ShippedProfilesRoundTripExactly) {
  for (const MemoryTopology& topology :
       {MemoryTopology::knl7210(), MemoryTopology::xeon_max(),
        MemoryTopology::knl_nvm()}) {
    const MemoryTopology reparsed =
        MemoryTopology::parse_machine_file(topology.to_machine_file());
    EXPECT_TRUE(reparsed == topology) << topology.name << " drifted through "
                                      << "serialize/parse";
  }
}

TEST(TopologyMachineFile, SerializationStaysHumanReadable) {
  const std::string text = MemoryTopology::knl7210().to_machine_file();
  // Plain decimal spellings, never scientific notation (the format_double
  // contract): calibrated KNL numbers appear verbatim.
  EXPECT_NE(text.find("stream_bw_gbs = 455"), std::string::npos) << text;
  EXPECT_NE(text.find("idle_latency_ns = 130.4"), std::string::npos) << text;
  EXPECT_EQ(text.find("e+"), std::string::npos) << text;  // no exponent forms
  EXPECT_EQ(text.find("e-"), std::string::npos) << text;
  EXPECT_NE(text.find("backing = DDR4"), std::string::npos) << text;
  EXPECT_NE(text.find("backing = none"), std::string::npos) << text;
}

TEST(TopologyMachineFile, ParserAcceptsCommentsWhitespaceAndSuffixes) {
  const std::string text =
      "# hand-written machine file\n"
      "machine = boxy\n"
      "tiers = 2\n"
      "\n"
      "[tier 0]\n"
      "  name = FAST\n"
      "kind = hbm\n"
      "controllers = 0..2\n"
      "capacity_bytes = 4 GiB\n"
      "peak_bw_gbs = 400\n"
      "stream_bw_gbs = 380\n"
      "random_bw_gbs = 200\n"
      "idle_latency_ns = 150\n"
      "backing = SLOW\n"
      "cache_front = true\n"
      "[tier 1]\n"
      "name = SLOW\n"
      "kind = dram\n"
      "controllers = 2..6\n"
      "capacity_bytes = 32768 MiB\n"
      "peak_bw_gbs = 90\n"
      "stream_bw_gbs = 77\n"
      "random_bw_gbs = 40\n"
      "idle_latency_ns = 130\n";
  const MemoryTopology topology = MemoryTopology::parse_machine_file(text);
  EXPECT_EQ(topology.name, "boxy");
  ASSERT_EQ(topology.tier_count(), 2u);
  EXPECT_EQ(topology.tier(0).params.capacity_bytes, 4 * GiB);
  EXPECT_EQ(topology.tier(1).params.capacity_bytes, 32 * GiB);
  EXPECT_EQ(topology.tier(0).backing, 1);
  EXPECT_EQ(topology.tier(1).backing, -1);  // default when the key is absent
}

void expect_parse_rejected(const std::string& text, const std::string& slug) {
  try {
    (void)MemoryTopology::parse_machine_file(text);
    FAIL() << "expected parse to reject with slug " << slug;
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::CorruptInput) << e.what();
    EXPECT_EQ(e.code(), slug) << e.what();
  }
}

TEST(TopologyMachineFile, ParserRejections) {
  // Syntax: not key = value.
  expect_parse_rejected("machine = x\ntiers = 0\ngarbage line\n", "topology/parse");
  // Missing machine header.
  expect_parse_rejected("tiers = 0\n", "topology/parse");
  // Header/tier-count mismatch.
  expect_parse_rejected("machine = x\ntiers = 3\n", "topology/parse");
  // Sections out of order.
  expect_parse_rejected("machine = x\ntiers = 1\n[tier 1]\nname = A\n",
                        "topology/parse");
  // Unknown tier kind.
  std::string text = MemoryTopology::knl7210().to_machine_file();
  text.replace(text.find("kind = hbm"), 10, "kind = sram");
  expect_parse_rejected(text, "topology/unknown-kind");
  // Unknown field (header and tier scope).
  expect_parse_rejected("machine = x\nflux = 1\ntiers = 0\n",
                        "topology/unknown-field");
  text = MemoryTopology::knl7210().to_machine_file();
  text += "voltage = 11\n";
  expect_parse_rejected(text, "topology/unknown-field");
  // Undeclared backing tier name.
  text = MemoryTopology::knl7210().to_machine_file();
  text.replace(text.find("backing = DDR4"), 14, "backing = DDR5");
  expect_parse_rejected(text, "topology/bad-backing");
  // A parsed file is always validated: zero capacity surfaces its own slug.
  text = MemoryTopology::knl7210().to_machine_file();
  text.replace(text.find("capacity_bytes = 17179869184"), 28,
               "capacity_bytes = 0");
  expect_parse_rejected(text, "topology/zero-capacity");
}

/// `text` with the first occurrence of `from` replaced by `to`.
std::string with_replaced(std::string text, const std::string& from,
                          const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

TEST(TopologyMachineFile, ParserRejectsInexactAndNonDecimalNumbers) {
  const std::string knl = MemoryTopology::knl7210().to_machine_file();
  const std::pair<const char*, const char*> rows[] = {
      {"peak_bw_gbs = 450", "peak_bw_gbs = inf"},
      {"peak_bw_gbs = 450", "peak_bw_gbs = 0x190"},
      {"peak_bw_gbs = 450", "peak_bw_gbs = 450 GB/s"},
      {"idle_latency_ns = 154", "idle_latency_ns = 1e400"},
      {"tiers = 2", "tiers = 2.9"},
      {"capacity_bytes = 17179869184", "capacity_bytes = nan"},
      {"capacity_bytes = 17179869184", "capacity_bytes = 1e30"},
      {"capacity_bytes = 17179869184", "capacity_bytes = 18446744073709551616"},
      {"capacity_bytes = 17179869184", "capacity_bytes = 16777216 TiB"},
      {"capacity_bytes = 17179869184", "capacity_bytes = 0.5"},
      {"controllers = 0..8", "controllers = 0..8x"},
      {"controllers = 0..8", "controllers = 0.5..8"},
      {"[tier 1]", "[tier 1b]"},
  };
  for (const auto& [from, to] : rows) {
    SCOPED_TRACE(to);
    expect_parse_rejected(with_replaced(knl, from, to), "topology/parse");
  }
}

TEST(TopologyMachineFile, ParserKeepsExactByteCounts) {
  const std::string knl = MemoryTopology::knl7210().to_machine_file();
  // Above 2^53 a double cannot hold every integer; raw digits stay exact.
  const MemoryTopology big = MemoryTopology::parse_machine_file(with_replaced(
      knl, "capacity_bytes = 17179869184", "capacity_bytes = 18446744073709551615"));
  EXPECT_EQ(big.tier(0).params.capacity_bytes, 18446744073709551615ull);
  const MemoryTopology fractional = MemoryTopology::parse_machine_file(
      with_replaced(knl, "capacity_bytes = 17179869184", "capacity_bytes = 1.5 GiB"));
  EXPECT_EQ(fractional.tier(0).params.capacity_bytes, 3 * GiB / 2);
}

/// Property: randomized valid topologies round-trip exactly, including
/// doubles with no finite decimal expansion. The trial seed is in the
/// failure message, so any counterexample reproduces deterministically.
TEST(TopologyMachineFile, PropertyRandomTopologiesRoundTripExactly) {
  const char* const kinds_names[] = {"HBM0", "DRAM1", "NVM2", "TIER3", "TIER4"};
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    std::mt19937_64 rng(0x7090c0de + trial);
    std::uniform_int_distribution<int> tier_count_dist(1, 5);
    std::uniform_real_distribution<double> bw_dist(0.001, 2000.0);
    std::uniform_int_distribution<std::uint64_t> cap_dist(1, 1ull << 40);
    std::uniform_int_distribution<int> kind_dist(0, 2);

    MemoryTopology topology;
    topology.name = "rand" + std::to_string(trial);
    const int tier_count = tier_count_dist(rng);
    int next_controller = 0;
    for (int i = 0; i < tier_count; ++i) {
      MemoryTier tier;
      tier.name = kinds_names[i];
      tier.kind = static_cast<TierKind>(kind_dist(rng));
      tier.params.capacity_bytes = cap_dist(rng);
      // Divisions manufacture repeating binary fractions (1/3, 1/7, ...)
      // that only survive text if the formatter really is exact.
      tier.params.peak_bw_gbs = bw_dist(rng) / 3.0;
      tier.params.stream_bw_gbs = bw_dist(rng) / 7.0;
      tier.params.random_bw_gbs = bw_dist(rng);
      tier.params.idle_latency_ns = bw_dist(rng) / 9.0;
      tier.controllers_begin = next_controller;
      next_controller += 1 + static_cast<int>(rng() % 7);
      tier.controllers_end = next_controller;
      // Back onto any later tier (keeps the chain acyclic) or terminal.
      if (i + 1 < tier_count && rng() % 2 == 0) {
        tier.backing = i + 1 + static_cast<int>(rng() % static_cast<unsigned>(
                                                    tier_count - i - 1));
        tier.cache_front = rng() % 2 == 0;
      }
      topology.tiers.push_back(tier);
    }
    ASSERT_NO_THROW(topology.validate()) << "trial " << trial;
    const MemoryTopology reparsed =
        MemoryTopology::parse_machine_file(topology.to_machine_file());
    ASSERT_TRUE(reparsed == topology)
        << "trial " << trial << " drifted:\n" << topology.to_machine_file();
  }
}

// ---------------------------------------------------------------------------
// Fingerprint mixing
// ---------------------------------------------------------------------------

TEST(TopologyFingerprint, SensitiveToEveryDeclaredField) {
  const auto fingerprint_of = [](const MemoryTopology& topology) {
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
    topology.mix_fingerprint(h);
    return h;
  };
  const MemoryTopology base = small_two_tier();
  const std::uint64_t reference = fingerprint_of(base);
  EXPECT_EQ(fingerprint_of(small_two_tier()), reference);  // deterministic

  std::vector<MemoryTopology> variants(8, small_two_tier());
  variants[0].name = "otherbox";
  variants[1].tiers[0].name = "FAST2";
  variants[2].tiers[0].kind = TierKind::NVM;
  variants[3].tiers[0].params.capacity_bytes += 1;
  variants[4].tiers[1].params.stream_bw_gbs += 0.5;
  variants[5].tiers[0].controllers_end += 1;
  variants[6].tiers[0].cache_front = false;
  variants[7].tiers.push_back(variants[7].tiers[1]);
  variants[7].tiers[2].name = "EXTRA";
  for (std::size_t i = 0; i < variants.size(); ++i) {
    EXPECT_NE(fingerprint_of(variants[i]), reference) << "variant " << i;
  }
}

// ---------------------------------------------------------------------------
// Waterfall placement
// ---------------------------------------------------------------------------

TEST(PlaceWaterfall, FitsEntirelyInPreferredTier) {
  const MemoryTopology topology = small_two_tier();
  const TierPlacement placement = place_waterfall(topology, 1 * GiB, 0);
  ASSERT_TRUE(placement.ok) << placement.error;
  ASSERT_EQ(placement.shares.size(), 1u);
  EXPECT_EQ(placement.shares[0], (TierShare{0, 1 * GiB}));
  EXPECT_DOUBLE_EQ(placement.fraction_in(0), 1.0);
  EXPECT_DOUBLE_EQ(placement.fraction_in(1), 0.0);
}

TEST(PlaceWaterfall, SpillsRemainderDownTheChain) {
  const MemoryTopology topology = small_two_tier();
  const TierPlacement placement = place_waterfall(topology, 6 * GiB, 0);
  ASSERT_TRUE(placement.ok) << placement.error;
  ASSERT_EQ(placement.shares.size(), 2u);
  EXPECT_EQ(placement.shares[0], (TierShare{0, 4 * GiB}));
  EXPECT_EQ(placement.shares[1], (TierShare{1, 2 * GiB}));
  EXPECT_DOUBLE_EQ(placement.fraction_in(0), 4.0 / 6.0);
  EXPECT_EQ(placement.total_bytes(), 6 * GiB);
}

TEST(PlaceWaterfall, StrictForbidsSpilling) {
  const MemoryTopology topology = small_two_tier();
  const TierPlacement placement =
      place_waterfall(topology, 6 * GiB, 0, /*strict=*/true);
  EXPECT_FALSE(placement.ok);
  EXPECT_TRUE(placement.shares.empty());
  EXPECT_NE(placement.error.find("membind"), std::string::npos) << placement.error;
  EXPECT_NE(placement.error.find("FAST"), std::string::npos) << placement.error;
}

TEST(PlaceWaterfall, OverflowPastTheTerminalTierIsInfeasible) {
  const MemoryTopology topology = small_two_tier();
  const TierPlacement placement = place_waterfall(topology, 100 * GiB, 0);
  EXPECT_FALSE(placement.ok);
  EXPECT_TRUE(placement.shares.empty());
  EXPECT_NE(placement.error.find("overflow the backing chain"), std::string::npos)
      << placement.error;
}

TEST(PlaceWaterfall, ThreeTierChainFillsInOrder) {
  const MemoryTopology topology = MemoryTopology::knl_nvm();
  // 16 GiB MCDRAM + 96 GiB DDR4 leaves 8 GiB for NVM.
  const TierPlacement placement = place_waterfall(topology, 120 * GiB, 0);
  ASSERT_TRUE(placement.ok) << placement.error;
  ASSERT_EQ(placement.shares.size(), 3u);
  EXPECT_EQ(placement.shares[0], (TierShare{0, 16 * GiB}));
  EXPECT_EQ(placement.shares[1], (TierShare{1, 96 * GiB}));
  EXPECT_EQ(placement.shares[2], (TierShare{2, 8 * GiB}));
}

TEST(PlaceWaterfall, OutOfRangePreferredTierIsAnError) {
  const TierPlacement placement = place_waterfall(small_two_tier(), 1, 9);
  EXPECT_FALSE(placement.ok);
  EXPECT_NE(placement.error.find("out of range"), std::string::npos);
}

TEST(PlaceWaterfall, ZeroBytesPlacesEmptyButOk) {
  const TierPlacement placement = place_waterfall(small_two_tier(), 0, 0);
  EXPECT_TRUE(placement.ok) << placement.error;
  EXPECT_EQ(placement.total_bytes(), 0u);
  EXPECT_DOUBLE_EQ(placement.fraction_in(0), 0.0);
}

}  // namespace
}  // namespace knl::sim
