// Tests for the text table renderer.
#include "report/table.hpp"

#include <gtest/gtest.h>

namespace knl::report {
namespace {

TEST(TextTable, AlignedColumns) {
  TextTable t({"Name", "Value"});
  t.add_row({"a", "1"});
  t.add_row({"longer-name", "2"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("Name"), std::string::npos);
  EXPECT_NE(s.find("longer-name"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);  // header rule
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, RowArityEnforced) {
  TextTable t({"a", "b"});
  EXPECT_THROW((void)t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW((void)t.add_row({"1", "2", "3"}), std::invalid_argument);
}

TEST(TextTable, EmptyHeadersRejected) {
  EXPECT_THROW((void)TextTable({}), std::invalid_argument);
}

TEST(TextTable, CsvShape) {
  TextTable t({"h1", "h2"});
  t.add_row({"x", "y"});
  EXPECT_EQ(t.to_csv(), "h1,h2\nx,y\n");
}

TEST(FormatGb, PaperStyleLabels) {
  EXPECT_EQ(format_gb(11.4e9), "11.4 GB");
  EXPECT_EQ(format_gb(96e9), "96.0 GB");
  EXPECT_EQ(format_gb(0.0), "0.0 GB");
}

}  // namespace
}  // namespace knl::report
