// Tests for the artifact JSON module: parse/dump round trips, exact double
// round-tripping through the shortest-form number printer, and parse errors.
#include "repro/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>

namespace knl::repro::json {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(Value::parse("null")->is_null());
  EXPECT_TRUE(Value::parse("true")->as_bool());
  EXPECT_FALSE(Value::parse("false")->as_bool(true));
  EXPECT_DOUBLE_EQ(Value::parse("-12.5e2")->as_number(), -1250.0);
  EXPECT_EQ(Value::parse("\"hi\\nthere\"")->as_string(), "hi\nthere");
}

TEST(Json, ParsesNestedStructures) {
  const auto v = Value::parse(R"({"a": [1, 2, {"b": true}], "c": "x"})");
  ASSERT_TRUE(v.has_value());
  const Value* a = v->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(a->as_array()[1].as_number(), 2.0);
  EXPECT_TRUE(a->as_array()[2].find("b")->as_bool());
  EXPECT_EQ(v->find("c")->as_string(), "x");
  EXPECT_EQ(v->find("missing"), nullptr);
}

TEST(Json, ObjectPreservesInsertionOrder) {
  Value obj = Value::object();
  obj.set("zulu", 1);
  obj.set("alpha", 2);
  obj.set("mike", 3);
  const Object& members = obj.as_object();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "zulu");
  EXPECT_EQ(members[1].first, "alpha");
  EXPECT_EQ(members[2].first, "mike");
  obj.set("alpha", 9);  // assign, not append
  EXPECT_EQ(obj.as_object().size(), 3u);
  EXPECT_DOUBLE_EQ(obj.find("alpha")->as_number(), 9.0);
}

TEST(Json, DumpParseRoundTripIsIdentity) {
  Value obj = Value::object();
  obj.set("name", "fig2_stream");
  obj.set("version", 1);
  Value points = Value::array();
  points.push_back(Array{Value(2.0), Value(83.4567891234)});
  points.push_back(Array{Value(4.0), Value(0.1)});
  obj.set("points", std::move(points));
  obj.set("flag", true);
  obj.set("nothing", nullptr);

  for (const int indent : {0, 2, 4}) {
    const auto reparsed = Value::parse(obj.dump(indent));
    ASSERT_TRUE(reparsed.has_value()) << "indent " << indent;
    EXPECT_TRUE(*reparsed == obj) << "indent " << indent;
  }
}

TEST(Json, NumbersRoundTripBitExactly) {
  // The artifacts' bless->diff exactness rests on this: the shortest decimal
  // form must strtod back to the identical double.
  const double cases[] = {0.0,
                          1.0 / 3.0,
                          0.1,
                          83.456789123456789,
                          6.02214076e23,
                          5e-324,  // min subnormal
                          std::numeric_limits<double>::max(),
                          -std::numeric_limits<double>::denorm_min(),
                          123456789012345678.0};
  for (const double v : cases) {
    const std::string text = format_number(v);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << "text " << text;
    const auto parsed = Value::parse(text);
    ASSERT_TRUE(parsed.has_value()) << "text " << text;
    EXPECT_EQ(parsed->as_number(), v) << "text " << text;
  }
  // And the form is genuinely the short one, not 17 digits of noise.
  EXPECT_EQ(format_number(0.1), "0.1");
  EXPECT_EQ(format_number(2.0), "2");
}

TEST(Json, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(Value::parse("{", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(Value::parse("[1, 2,]").has_value());
  EXPECT_FALSE(Value::parse("\"unterminated").has_value());
  EXPECT_FALSE(Value::parse("1 2").has_value());  // trailing junk
  EXPECT_FALSE(Value::parse("nan").has_value());
  EXPECT_FALSE(Value::parse("").has_value());
}

TEST(Json, NumberParserRejectsNonJsonForms) {
  // strtod accepted all of these; RFC 8259 numbers do not.
  const char* const rejected[] = {
      "0x10", "+5", ".5", "5.", "01", "-01", "[1,0x1p4]", "-", "1e", "1e+",
      "1.e5", "- 1", "inf", "-inf", "infinity", "1e400", "-1e400", "0.001e400",
      "1.7976931348623159e308",  // rounds past DBL_MAX to inf
  };
  for (const char* text : rejected) {
    std::string error;
    EXPECT_FALSE(Value::parse(text, &error).has_value()) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(Json, NumberParserKeepsStrtodValueForJsonForms) {
  const char* const kept[] = {
      "0", "-0", "7", "-12.5e2", "1E5", "1e+5", "1e-5", "0.000125",
      "123456789012345678901234567890", "1.7976931348623157e308",
      "4.9e-324",                  // min subnormal
      "2.4703282292062328e-324",   // just above half of it: rounds up
      "2.4703282292062327e-324",   // just below: underflows to zero
      "1e-400", "-1e-400",         // underflow keeps strtod's signed zero
      "0.000000000000000000000000000000000000000000000000001e-300",
      "100000000000000000000000000000000000000000000000000e-400",
      "0.001e311",
  };
  for (const char* text : kept) {
    const auto parsed = Value::parse(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    const double expected = std::strtod(text, nullptr);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed->as_number()),
              std::bit_cast<std::uint64_t>(expected))
        << text;
  }
}

TEST(Json, AccessorsFallBackOnTypeMismatch) {
  const Value num(3.5);
  EXPECT_EQ(num.as_string(), "");
  EXPECT_TRUE(num.as_array().empty());
  EXPECT_TRUE(num.as_object().empty());
  EXPECT_EQ(num.find("k"), nullptr);
  EXPECT_FALSE(num.as_bool());
  const Value str("s");
  EXPECT_DOUBLE_EQ(str.as_number(7.0), 7.0);
}

}  // namespace
}  // namespace knl::repro::json
