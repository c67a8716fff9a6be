#include "util/strings.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace wsc::util {
namespace {

TEST(StringsTest, TrimStripsAsciiWhitespace) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("\t\r\nx\n"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("a b"), "a b");
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split(",a,", ','), (std::vector<std::string>{"", "a", ""}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(StringsTest, JoinInvertsSplit) {
  std::vector<std::string> parts{"a", "", "c"};
  EXPECT_EQ(join(parts, ","), "a,,c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"only"}, "; "), "only");
}

TEST(StringsTest, IequalsIsCaseInsensitive) {
  EXPECT_TRUE(iequals("Content-Length", "content-length"));
  EXPECT_TRUE(iequals("", ""));
  EXPECT_FALSE(iequals("abc", "abd"));
  EXPECT_FALSE(iequals("abc", "abcd"));
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(starts_with("max-age=60", "max-age="));
  EXPECT_FALSE(starts_with("max", "max-age="));
  EXPECT_TRUE(ends_with("file.xml", ".xml"));
  EXPECT_FALSE(ends_with("xml", ".xml"));
}

TEST(StringsTest, FormatDoubleRoundTrips) {
  for (double v : {0.0, 1.5, -2.25, 0.1, 1e-300, 1e300, 3.141592653589793}) {
    std::string text;
    append_double(text, v);
    EXPECT_DOUBLE_EQ(parse_double(text), v) << v;
  }
}

TEST(StringsTest, ParseI64AcceptsWholeTokenOnly) {
  EXPECT_EQ(parse_i64("42"), 42);
  EXPECT_EQ(parse_i64("-7"), -7);
  EXPECT_EQ(parse_i64("  13  "), 13);  // trimmed
  EXPECT_THROW(parse_i64("42x"), ParseError);
  EXPECT_THROW(parse_i64(""), ParseError);
  EXPECT_THROW(parse_i64("4 2"), ParseError);
  EXPECT_THROW(parse_i64("999999999999999999999999"), ParseError);
}

TEST(StringsTest, ParseI32RejectsOverflow) {
  EXPECT_EQ(parse_i32("2147483647"), 2147483647);
  EXPECT_EQ(parse_i32("-2147483648"), -2147483647 - 1);
  EXPECT_THROW(parse_i32("2147483648"), ParseError);
  EXPECT_THROW(parse_i32("-2147483649"), ParseError);
}

TEST(StringsTest, ParseBoolAcceptsXsdLexicalForms) {
  EXPECT_TRUE(parse_bool("true"));
  EXPECT_TRUE(parse_bool("1"));
  EXPECT_FALSE(parse_bool("false"));
  EXPECT_FALSE(parse_bool("0"));
  EXPECT_TRUE(parse_bool(" true "));
  EXPECT_THROW(parse_bool("TRUE"), ParseError);  // xsd:boolean is lower-case
  EXPECT_THROW(parse_bool("yes"), ParseError);
}

TEST(StringsTest, ToLower) {
  EXPECT_EQ(to_lower("MiXeD-123"), "mixed-123");
}

}  // namespace
}  // namespace wsc::util
