// Fingerprint/topology contract: MachineConfig::fingerprint must change
// exactly when the topology (or any other modelled parameter) changes. Two
// identities carry the whole golden corpus:
//
//   1. The canonical two-tier KNL shape adds nothing its fast and DRAM
//      envelopes don't already encode, so it is not mixed in — golden
//      artifacts recorded before topologies existed keep matching.
//   2. Any *divergent* declaration (extra tier, different envelope, renamed
//      tier) perturbs the fingerprint, so per-profile goldens can never be
//      confused across machines.
//
// The machines/*.machine files on disk are also pinned to the in-code
// profile builders here — a drive-by edit to a machine file that silently
// re-parameterizes a shipped profile fails this suite.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "core/machine.hpp"
#include "core/machine_config.hpp"
#include "core/machine_profiles.hpp"
#include "sim/topology.hpp"

#ifndef KNLMEM_REPO_DIR
#error "build must define KNLMEM_REPO_DIR (see tests/CMakeLists.txt)"
#endif

namespace knl {
namespace {

std::string read_file(const std::string& relative) {
  const std::string path = std::string(KNLMEM_REPO_DIR) + "/" + relative;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(FingerprintTopology, DeclaringTheCanonicalKnlTopologyIsAFingerprintNoOp) {
  const MachineConfig plain;
  MachineConfig declared;
  declared.topology = sim::MemoryTopology::knl7210();
  // The default topology is the paper testbed, so declaring it changes
  // nothing: the goldens recorded before topologies existed stay valid.
  EXPECT_TRUE(plain.topology == declared.topology);
  EXPECT_EQ(plain.fingerprint(), declared.fingerprint());
  EXPECT_NO_THROW(declared.validate());
}

TEST(FingerprintTopology, KnlShapeWithEditedEnvelopesSharesItsPresetsKey) {
  // A machine file declaring the KNL shape with MCDRAM latency equal to
  // DDR's is the equal-latency preset, and takes the preset's key.
  sim::MemoryTopology topology = sim::MemoryTopology::knl7210();
  topology.tiers[0].params.idle_latency_ns = topology.tiers[1].params.idle_latency_ns;
  const MachineConfig from_file = MachineConfig::from_machine_file(topology.to_machine_file());
  EXPECT_EQ(from_file.fingerprint(), MachineConfig::knl7210_equal_latency().fingerprint());
  EXPECT_NE(from_file.fingerprint(), MachineConfig::knl7210().fingerprint());
}

TEST(FingerprintTopology, MachineFileKnlMatchesTheDefaultFingerprint) {
  const MachineConfig from_file =
      MachineConfig::from_machine_file(read_file("machines/knl7210.machine"));
  EXPECT_EQ(from_file.fingerprint(), MachineConfig::knl7210().fingerprint());
}

TEST(FingerprintTopology, FingerprintChangesIffTheTopologyChanges) {
  const std::uint64_t knl = MachineConfig::knl7210().fingerprint();

  // Changes: a diverging declaration must perturb the fingerprint.
  MachineConfig renamed = MachineConfig::knl7210();
  sim::MemoryTopology topology = sim::MemoryTopology::knl7210();
  topology.tiers[0].name = "MCDRAM2";
  renamed.topology = topology;
  EXPECT_NE(renamed.fingerprint(), knl);

  MachineConfig extra_tier = MachineConfig::knl_nvm();
  EXPECT_NE(extra_tier.fingerprint(), knl);
  EXPECT_NE(MachineConfig::xeon_max().fingerprint(), knl);
  EXPECT_NE(MachineConfig::xeon_max().fingerprint(), extra_tier.fingerprint());

  // No change: re-declaring the identical topology is idempotent.
  MachineConfig again = MachineConfig::knl_nvm();
  again.topology = sim::MemoryTopology::knl_nvm();
  EXPECT_EQ(again.fingerprint(), extra_tier.fingerprint());

  // A controller-range edit alone (same envelope) still changes identity —
  // the declared layout is part of what the fingerprint names.
  MachineConfig relaid = MachineConfig::knl7210();
  topology = sim::MemoryTopology::knl7210();
  topology.tiers[0].controllers_end = 7;
  topology.tiers[1].controllers_begin = 7;
  relaid.topology = topology;
  EXPECT_NE(relaid.fingerprint(), knl);
}

TEST(FingerprintTopology, CacheFrontTierSizesTheMcdramCache) {
  const MachineConfig cfg = MachineConfig::xeon_max();
  EXPECT_EQ(cfg.fast_tier().capacity_bytes, 64 * GiB);
  EXPECT_EQ(cfg.dram_tier().capacity_bytes, 512 * GiB);
  EXPECT_EQ(cfg.timing.mcdram.capacity_bytes, 64 * GiB);  // cache-capable front
  EXPECT_NO_THROW(cfg.validate());

  // A machine file whose fast tier cannot front DRAM leaves the cache at
  // the testbed default.
  sim::MemoryTopology topology = sim::MemoryTopology::xeon_max();
  topology.tiers[0].cache_front = false;
  const MachineConfig flat_only = MachineConfig::from_machine_file(topology.to_machine_file());
  EXPECT_EQ(flat_only.timing.mcdram.capacity_bytes, MachineConfig{}.timing.mcdram.capacity_bytes);
}

TEST(FingerprintTopology, ShippedMachineFilesMatchTheirBuilders) {
  for (const MachineProfile& profile : machine_profiles()) {
    const MachineConfig from_file =
        MachineConfig::from_machine_file(read_file(profile.machine_file));
    const MachineConfig built = profile.make();
    EXPECT_TRUE(from_file.topology == built.topology)
        << profile.machine_file << " drifted from the " << profile.name
        << " builder — regenerate it from MemoryTopology::to_machine_file()";
    // Note: fingerprints may legitimately differ (xeon_max's builder also
    // retunes the core complex), but the declared hierarchy may not.
  }
}

TEST(FingerprintTopology, MachineCachesItsConfigFingerprint) {
  // Machine computes the hash once at construction; it must be the config's.
  const MachineConfig presets[] = {
      MachineConfig::knl7210(),      MachineConfig::knl7210_equal_latency(),
      MachineConfig::knl7210_snc4(), MachineConfig::ddr_only(),
      MachineConfig::xeon_max(),     MachineConfig::knl_nvm(),
  };
  for (const MachineConfig& cfg : presets) {
    EXPECT_EQ(Machine(cfg).fingerprint(), cfg.fingerprint()) << cfg.topology.name;
  }
  std::size_t machine_files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(std::string(KNLMEM_REPO_DIR) + "/machines")) {
    if (entry.path().extension() != ".machine") continue;
    ++machine_files;
    const MachineConfig cfg = MachineConfig::from_machine_file(
        read_file("machines/" + entry.path().filename().string()));
    EXPECT_EQ(Machine(cfg).fingerprint(), cfg.fingerprint()) << entry.path();
  }
  EXPECT_GE(machine_files, 3u);
}

TEST(FingerprintTopology, ProfileRegistryIsWellFormed) {
  ASSERT_GE(machine_profiles().size(), 3u);
  EXPECT_EQ(machine_profiles().front().name, "knl7210");  // matrix order
  std::set<std::string> names;
  std::set<std::string> golden_dirs;
  for (const MachineProfile& profile : machine_profiles()) {
    EXPECT_TRUE(names.insert(profile.name).second) << profile.name;
    EXPECT_TRUE(golden_dirs.insert(profile.golden_dir).second)
        << profile.name << ": golden dirs must be disjoint";
    ASSERT_NE(profile.make, nullptr) << profile.name;
    EXPECT_NO_THROW(profile.make().validate()) << profile.name;
    EXPECT_EQ(find_machine_profile(profile.name), &profile);
  }
  EXPECT_EQ(find_machine_profile("pdp11"), nullptr);
  EXPECT_EQ(machine_profiles()[0].golden_dir, "golden");  // historical root
}

}  // namespace
}  // namespace knl
