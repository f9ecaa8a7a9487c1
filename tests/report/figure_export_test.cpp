// Tests for the JSON / gnuplot figure exporters and the machine model card.
#include <gtest/gtest.h>

#include "core/machine.hpp"
#include "report/figure.hpp"

namespace knl::report {
namespace {

Figure sample() {
  Figure f("Fig \"2\"", "Size (GB)", "GB/s");
  f.add("DRAM", 2.0, 77.0);
  f.add("DRAM", 4.0, 77.0);
  f.add("HBM", 2.0, 330.0);
  return f;
}

TEST(FigureJson, WellFormedAndEscaped) {
  const std::string json = sample().to_json();
  EXPECT_NE(json.find("\"title\":\"Fig \\\"2\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"series\":["), std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"DRAM\",\"points\":[[2,77],[4,77]]}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"HBM\",\"points\":[[2,330]]}"), std::string::npos);
  // Balanced braces/brackets.
  int depth = 0;
  for (const char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(FigureJson, EmptyFigure) {
  Figure f("t", "x", "y");
  EXPECT_EQ(f.to_json(), "{\"title\":\"t\",\"x_label\":\"x\",\"y_label\":\"y\","
                         "\"series\":[]}");
}

TEST(MachineModelCard, ListsCalibratedAnchors) {
  Machine machine;
  const std::string card = machine.describe();
  EXPECT_NE(card.find("64"), std::string::npos);      // cores
  EXPECT_NE(card.find("130.4"), std::string::npos);   // DDR idle latency
  EXPECT_NE(card.find("154"), std::string::npos);     // HBM idle latency
  EXPECT_NE(card.find("77"), std::string::npos);      // STREAM anchor
  EXPECT_NE(card.find("MCDRAM cache"), std::string::npos);
  EXPECT_NE(card.find("TLB"), std::string::npos);
}

}  // namespace
}  // namespace knl::report
