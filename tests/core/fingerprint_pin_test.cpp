// Fingerprint pins: the exact hex fingerprint of every shipped machine.
//
// Golden artifacts and persisted SweepCache files are keyed on
// MachineConfig::fingerprint(), so its byte stream is frozen: a refactor of
// MachineConfig (dropping a view, re-deriving a field) must reproduce these
// values bit for bit or every cached result silently goes cold. A
// deliberate schema change bumps kMachineSchemaVersion and re-pins here.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/machine_config.hpp"
#include "report/sensitivity.hpp"

#ifndef KNLMEM_REPO_DIR
#error "build must define KNLMEM_REPO_DIR (see tests/CMakeLists.txt)"
#endif

namespace knl {
namespace {

std::string hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, value);
  return buf;
}

std::string read_file(const std::string& relative) {
  const std::string path = std::string(KNLMEM_REPO_DIR) + "/" + relative;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(FingerprintPin, EveryPresetKeepsItsHistoricalFingerprint) {
  EXPECT_EQ(hex(MachineConfig::knl7210().fingerprint()), "5ec181a8a35a6217");
  EXPECT_EQ(hex(MachineConfig::knl7210_equal_latency().fingerprint()), "2bc8807cb03c37b5");
  EXPECT_EQ(hex(MachineConfig::knl7210_snc4().fingerprint()), "443a4b05bdf06414");
  EXPECT_EQ(hex(MachineConfig::ddr_only().fingerprint()), "d45c3f7ff8a7b5f7");
  EXPECT_EQ(hex(MachineConfig::xeon_max().fingerprint()), "7a269c476cc8c57a");
  EXPECT_EQ(hex(MachineConfig::knl_nvm().fingerprint()), "33a435246a478b45");
}

TEST(FingerprintPin, EveryMachineFileKeepsItsHistoricalFingerprint) {
  const struct {
    const char* file;
    const char* fingerprint;
  } pins[] = {
      {"machines/knl7210.machine", "5ec181a8a35a6217"},
      {"machines/xeonmax.machine", "d0e3fc1275f5edd5"},
      {"machines/knl_nvm.machine", "33a435246a478b45"},
  };
  std::size_t machine_files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(std::string(KNLMEM_REPO_DIR) + "/machines")) {
    if (entry.path().extension() == ".machine") ++machine_files;
  }
  EXPECT_EQ(machine_files, std::size(pins)) << "pin every machines/*.machine file here";
  for (const auto& pin : pins) {
    const MachineConfig cfg = MachineConfig::from_machine_file(read_file(pin.file));
    EXPECT_EQ(hex(cfg.fingerprint()), pin.fingerprint) << pin.file;
  }
}

TEST(FingerprintPin, EveryStandardPerturbationKeepsItsHistoricalFingerprint) {
  // The sensitivity perturbations edit tiers through MachineConfig's tier
  // accessors; each perturbed KNL config keeps its historical key, so
  // cached results of perturbed machines stay warm.
  const struct {
    const char* name;
    const char* minus;  // delta -0.1
    const char* plus;   // delta +0.1
  } pins[] = {
      {"hbm_latency", "aae7acb3e4e0c3b3", "d0606577f90cbed6"},
      {"ddr_latency", "31b5555fb455b12c", "cfc5570f6fc8c30e"},
      {"hbm_stream_bw", "5443917935100fa8", "1b4643ddda6207cd"},
      {"ddr_stream_bw", "268ba65d164768fb", "f90fee449bb6096e"},
      {"ddr_random_bw", "86acc6b38c3573d9", "13f88fd21707ff4d"},
      {"seq_mlp", "3850648d6b76e283", "4d5ad18ff7c4f442"},
      {"rand_mlp", "b3f5192f8b838423", "4e3edfc475226783"},
      {"mcdram_sweep_knee", "63f82f758b6dee81", "c028a4407955aa55"},
  };
  const std::vector<report::NamedPerturbation> perturbations =
      report::standard_perturbations();
  ASSERT_EQ(perturbations.size(), std::size(pins)) << "pin every standard perturbation here";
  for (std::size_t i = 0; i < perturbations.size(); ++i) {
    ASSERT_EQ(perturbations[i].name, pins[i].name);
    MachineConfig minus = MachineConfig::knl7210();
    perturbations[i].apply(minus, -0.1);
    EXPECT_EQ(hex(minus.fingerprint()), pins[i].minus) << pins[i].name << " -0.1";
    MachineConfig plus = MachineConfig::knl7210();
    perturbations[i].apply(plus, 0.1);
    EXPECT_EQ(hex(plus.fingerprint()), pins[i].plus) << pins[i].name << " +0.1";
  }
}

}  // namespace
}  // namespace knl
