// Byte-identity of the artifact number printer. json::format_number must
// print exactly what the original printer did — "%.0f" for integral values
// below 2^53, else the first "%.*g" precision in 1..17 whose text strtod's
// back to the same double — because every golden baseline, and every
// fingerprint-keyed cache entry, was written by it. That printer is kept
// here as the oracle and compared on a seeded corpus, and every checked-in
// golden must reparse and reprint to its exact bytes.
#include "repro/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#ifndef KNLMEM_GOLDEN_DIR
#error "build must define KNLMEM_GOLDEN_DIR (see tests/CMakeLists.txt)"
#endif

namespace knl::repro::json {
namespace {

namespace fs = std::filesystem;

/// The original snprintf/strtod probing printer.
std::string oracle_format(double v) {
  char buf[40];
  if (v == std::floor(v) && std::fabs(v) < 9007199254740992.0) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::vector<double> corpus() {
  std::vector<double> values;
  std::mt19937_64 rng(0x6a736f6eULL);  // fixed seed: the corpus is part of the test

  // Random bit patterns (every exponent, subnormals and non-finite included).
  for (int i = 0; i < 20000; ++i) values.push_back(std::bit_cast<double>(rng()));
  // Log-uniform magnitudes, both signs.
  std::uniform_real_distribution<double> exponent(-320.0, 308.0);
  for (int i = 0; i < 20000; ++i) {
    const double v = std::pow(10.0, exponent(rng));
    values.push_back(i % 2 == 0 ? v : -v);
  }
  // Three-decimal values and reciprocals, the shapes the model's ratios take.
  std::uniform_int_distribution<int> thousandths(-10'000'000, 10'000'000);
  for (int i = 0; i < 10000; ++i) values.push_back(thousandths(rng) / 1000.0);
  for (int n = 1; n <= 10000; ++n) values.push_back(1.0 / n);
  // Every power of two and its ±1-ulp neighbours: the asymmetric rounding
  // intervals where starting %.*g at the shortest digit count is not enough.
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    values.push_back(p);
    values.push_back(std::nextafter(p, 0.0));
    values.push_back(std::nextafter(p, std::numeric_limits<double>::infinity()));
  }
  // Subnormals.
  std::uniform_int_distribution<std::uint64_t> mantissa(1, (std::uint64_t{1} << 52) - 1);
  for (int i = 0; i < 2000; ++i) values.push_back(std::bit_cast<double>(mantissa(rng)));
  // Integers around 2^53, where the integral spelling stops.
  const double two53 = 9007199254740992.0;
  for (int d = -64; d <= 64; ++d) {
    values.push_back(two53 + 2.0 * d);
    values.push_back(-(two53 + 2.0 * d));
  }
  values.push_back(std::ldexp(1.0, 51) + 0.5);  // non-integral, just under the cut-off
  values.push_back(0.0);
  values.push_back(-0.0);
  values.push_back(std::numeric_limits<double>::infinity());
  values.push_back(-std::numeric_limits<double>::infinity());
  values.push_back(std::numeric_limits<double>::quiet_NaN());
  values.push_back(-std::numeric_limits<double>::quiet_NaN());
  values.push_back(std::numeric_limits<double>::max());
  values.push_back(std::numeric_limits<double>::min());
  values.push_back(std::numeric_limits<double>::denorm_min());
  return values;
}

TEST(JsonFormat, MatchesTheProbingPrinterOnSeededCorpus) {
  std::size_t mismatches = 0;
  for (const double v : corpus()) {
    const std::string expected = oracle_format(v);
    const std::string actual = format_number(v);
    if (actual != expected && ++mismatches <= 10) {
      ADD_FAILURE() << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(v)
                    << ": printed " << actual << ", expected " << expected;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(JsonFormat, AsymmetricIntervalNeedsMoreThanTheShortestDigitCount) {
  // The shortest round-trip form has 16 digits, but %.16g rounds this power
  // of two to a neighbour; the printer must go on to 17 digits as before.
  EXPECT_EQ(format_number(0x1p-1017), "7.1202363472230444e-307");
  EXPECT_EQ(format_number(0x1p-1017), oracle_format(0x1p-1017));
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(JsonFormat, EveryGoldenReprintsByteForByte) {
  std::vector<fs::path> dirs{fs::path(KNLMEM_GOLDEN_DIR)};
  for (const fs::directory_entry& entry :
       fs::directory_iterator(fs::path(KNLMEM_GOLDEN_DIR) / "profiles")) {
    if (entry.is_directory()) dirs.push_back(entry.path());
  }
  std::size_t checked = 0;
  for (const fs::path& dir : dirs) {
    for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
      if (!entry.is_regular_file() || entry.path().extension() != ".json") continue;
      const std::string text = read_file(entry.path());
      std::string error;
      const auto value = Value::parse(text, &error);
      ASSERT_TRUE(value.has_value()) << entry.path() << ": " << error;
      EXPECT_EQ(value->dump() + '\n', text) << entry.path();
      ++checked;
    }
  }
  EXPECT_EQ(checked, 45u);  // 3 profiles x (14 artifacts + manifest)
}

}  // namespace
}  // namespace knl::repro::json
