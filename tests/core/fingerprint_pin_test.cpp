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

#include "core/machine_config.hpp"

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

}  // namespace
}  // namespace knl
