#include "util/strings.hpp"

#include <gtest/gtest.h>

namespace gdelt {
namespace {

TEST(TrimTest, Basic) {
  EXPECT_EQ(TrimView("  a b  "), "a b");
  EXPECT_EQ(TrimView(""), "");
  EXPECT_EQ(TrimView(" \t\r\n "), "");
  EXPECT_EQ(TrimView("x"), "x");
}

TEST(CaseTest, ToLowerAsciiOnly) {
  EXPECT_EQ(ToLowerAscii("AbC123-Z"), "abc123-z");
}

TEST(AffixTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("masterfilelist.txt", "master"));
  EXPECT_FALSE(StartsWith("m", "master"));
  EXPECT_TRUE(EndsWith("a.export.CSV.zip", ".export.CSV.zip"));
  EXPECT_FALSE(EndsWith("zip", ".export.CSV.zip"));
}

TEST(SplitTest, KeepsEmptyFields) {
  const auto parts = SplitView("a\t\tb\t", '\t');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(SplitTest, SingleField) {
  const auto parts = SplitView("abc", '\t');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(SplitTest, ReusesBuffer) {
  std::vector<std::string_view> buf;
  SplitInto("1,2,3", ',', buf);
  EXPECT_EQ(buf.size(), 3u);
  SplitInto("x", ',', buf);
  EXPECT_EQ(buf.size(), 1u);
}

TEST(JoinTest, Basic) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

struct IntCase {
  std::string_view text;
  bool ok;
  std::int64_t value;
};

class ParseInt64Test : public ::testing::TestWithParam<IntCase> {};

TEST_P(ParseInt64Test, Parses) {
  const auto& c = GetParam();
  const auto got = ParseInt64(c.text);
  EXPECT_EQ(got.has_value(), c.ok) << c.text;
  if (c.ok) {
    EXPECT_EQ(*got, c.value);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParseInt64Test,
    ::testing::Values(IntCase{"0", true, 0}, IntCase{"-17", true, -17},
                      IntCase{"9223372036854775807", true, INT64_MAX},
                      IntCase{"9223372036854775808", false, 0},
                      IntCase{"", false, 0}, IntCase{"12a", false, 0},
                      IntCase{" 12", false, 0}, IntCase{"1.5", false, 0},
                      IntCase{"20150218230000", true, 20150218230000}));

TEST(ParseDoubleTest, StrictWholeView) {
  EXPECT_DOUBLE_EQ(*ParseDouble("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("-1e3"), -1000.0);
  EXPECT_FALSE(ParseDouble("2.5x").has_value());
  EXPECT_FALSE(ParseDouble("").has_value());
}

TEST(UrlTest, HostOfUrl) {
  EXPECT_EQ(HostOfUrl("https://www.a.co.uk/x/y?z"), "www.a.co.uk");
  EXPECT_EQ(HostOfUrl("a.co.uk/path"), "a.co.uk");
  EXPECT_EQ(HostOfUrl("http://host:8080/p"), "host");
  EXPECT_EQ(HostOfUrl("plainhost"), "plainhost");
}

struct TldCase {
  std::string_view input;
  std::string_view tld;
};

class TldTest : public ::testing::TestWithParam<TldCase> {};

TEST_P(TldTest, Extracts) {
  EXPECT_EQ(TopLevelDomain(GetParam().input), GetParam().tld);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TldTest,
    ::testing::Values(TldCase{"https://www.theguardian.com/world", "com"},
                      TldCase{"herald0.co.uk", "uk"},
                      TldCase{"a.b.c.au", "au"},
                      TldCase{"nodots", ""},
                      TldCase{"trailingdot.", ""},
                      TldCase{"host:443", ""},       // numeric tail rejected
                      TldCase{"1.2.3.4", ""},
                      TldCase{"", ""}));

TEST(FormatTest, AppendfAppendsPastTheStackBuffer) {
  std::string out = "x";
  Appendf(out, "%d-%s", 7, "y");
  EXPECT_EQ(out, "x7-y");
  const std::string wide(1000, 'w');
  Appendf(out, "[%s]", wide.c_str());
  EXPECT_EQ(out, "x7-y[" + wide + "]");
  EXPECT_EQ(StrFormat("%s", wide.c_str()), wide);
}

TEST(FormatTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
}

TEST(FormatTest, WithThousands) {
  EXPECT_EQ(WithThousands(0), "0");
  EXPECT_EQ(WithThousands(999), "999");
  EXPECT_EQ(WithThousands(1000), "1,000");
  EXPECT_EQ(WithThousands(12345), "12,345");
  EXPECT_EQ(WithThousands(1090310118ull), "1,090,310,118");
}

}  // namespace
}  // namespace gdelt
