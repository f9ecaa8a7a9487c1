// Machine-file parser under hostile input, and the documented example.
//
// MachineFileMutation: seeded byte flips, truncations, duplicated lines and
// swapped numbers of every machines/*.machine file, with a fixed seed and
// iteration count. Each input parses into a topology that validates and
// round-trips, or throws a CorruptInput knl::Error; anything else, or a
// sanitizer report, is a parser bug.
// MachineFileShipped: each shipped file reprints byte for byte.
// MachineFileDoc: the fenced example in docs/MACHINES.md parses.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/fault/error.hpp"
#include "sim/topology.hpp"

#ifndef KNLMEM_REPO_DIR
#error "build must define KNLMEM_REPO_DIR (see tests/CMakeLists.txt)"
#endif

namespace knl::sim {
namespace {

constexpr std::uint64_t kSeed = 0x6d616368696e65ull;  // "machine"
constexpr int kIterationsPerFile = 2000;

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<std::filesystem::path> shipped_machine_files() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(KNLMEM_REPO_DIR) + "/machines")) {
    if (entry.path().extension() == ".machine") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// One random edit of `text`. Draws only from `rng()` (whose sequence the
/// standard fixes), so the corpus is the same on every platform.
void mutate(std::string& text, std::mt19937_64& rng) {
  if (text.empty()) return;
  const std::size_t at = rng() % text.size();
  switch (rng() % 4) {
    case 0:  // flip one byte to an arbitrary value
      text[at] = static_cast<char>(text[at] ^ static_cast<char>(1 + rng() % 255));
      break;
    case 1:  // truncate
      text.resize(at);
      break;
    case 2: {  // duplicate the line holding `at`
      const std::size_t begin = text.rfind('\n', at) + 1;  // npos + 1 == 0
      const std::size_t end = std::min(text.find('\n', at), text.size() - 1) + 1;
      text.insert(begin, text.substr(begin, end - begin));
      break;
    }
    default: {  // swap two numbers (runs of digits, dots and exponents)
      std::vector<std::pair<std::size_t, std::size_t>> spans;
      for (std::size_t i = text.find_first_of("0123456789"); i != std::string::npos;) {
        const std::size_t stop = std::min(text.find_first_not_of("0123456789.e", i), text.size());
        spans.emplace_back(i, stop - i);
        i = text.find_first_of("0123456789", stop);
      }
      if (spans.size() < 2) break;
      auto a = spans[rng() % spans.size()];
      auto b = spans[rng() % spans.size()];
      if (a.first > b.first) std::swap(a, b);
      if (a.first == b.first) break;
      const std::string first = text.substr(a.first, a.second);
      const std::string second = text.substr(b.first, b.second);
      text.replace(b.first, b.second, first);  // later span first: offsets hold
      text.replace(a.first, a.second, second);
      break;
    }
  }
}

TEST(MachineFileMutation, EveryInputParsesOrFailsAsCorruptInput) {
  const auto files = shipped_machine_files();
  ASSERT_GE(files.size(), 3u);
  std::mt19937_64 rng(kSeed);
  int accepted = 0;
  int rejected = 0;
  for (const auto& path : files) {
    const std::string original = read_file(path);
    for (int iteration = 0; iteration < kIterationsPerFile; ++iteration) {
      std::string text = original;
      const int edits = 1 + static_cast<int>(rng() % 3);
      for (int e = 0; e < edits; ++e) mutate(text, rng);
      const std::string where =
          path.filename().string() + " iteration " + std::to_string(iteration);
      try {
        const MemoryTopology topology = MemoryTopology::parse_machine_file(text);
        ++accepted;
        EXPECT_NO_THROW(topology.validate()) << where;
        EXPECT_TRUE(MemoryTopology::parse_machine_file(topology.to_machine_file()) ==
                    topology)
            << where << " accepted but does not round-trip:\n" << text;
      } catch (const Error& e) {
        ++rejected;
        EXPECT_EQ(e.category(), ErrorCategory::CorruptInput)
            << where << ": " << e.what() << "\n" << text;
      } catch (const std::exception& e) {
        ADD_FAILURE() << where << " escaped as " << e.what() << "\n" << text;
      }
    }
  }
  // Both outcomes must occur, or the mutations are too weak (or too strong)
  // to test anything.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(MachineFileShipped, ReprintsByteForByte) {
  for (const auto& path : shipped_machine_files()) {
    const std::string text = read_file(path);
    EXPECT_EQ(MemoryTopology::parse_machine_file(text).to_machine_file(), text) << path;
  }
}

TEST(MachineFileDoc, FencedExampleParsesToTheKnlProfile) {
  const std::string doc = read_file(std::string(KNLMEM_REPO_DIR) + "/docs/MACHINES.md");
  // The example is the fenced block that opens with the machine header.
  const std::size_t open = doc.find("```\nmachine = ");
  ASSERT_NE(open, std::string::npos) << "docs/MACHINES.md has no machine-file example";
  const std::size_t body = open + 4;
  const std::size_t close = doc.find("```", body);
  ASSERT_NE(close, std::string::npos) << "unterminated fence in docs/MACHINES.md";
  const std::string example = doc.substr(body, close - body);
  const MemoryTopology parsed = MemoryTopology::parse_machine_file(example);
  EXPECT_TRUE(parsed == MemoryTopology::knl7210()) << parsed.to_machine_file();
}

}  // namespace
}  // namespace knl::sim
