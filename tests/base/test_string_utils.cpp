/** @file Tests for the string helpers. */

#include <gtest/gtest.h>

#include <utility>

#include "base/string_utils.hh"
#include "base/units.hh"

using namespace gnnmark;

TEST(StringUtils, JoinBasics)
{
    EXPECT_EQ(join({}, ","), "");
    EXPECT_EQ(join({"a"}, ","), "a");
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StringUtils, SplitBasics)
{
    auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "c");
}

TEST(StringUtils, SplitJoinRoundTrip)
{
    std::string s = "one|two|three";
    EXPECT_EQ(join(split(s, '|'), "|"), s);
}

TEST(StringUtils, StrfmtFormats)
{
    EXPECT_EQ(strfmt("%d-%s", 42, "x"), "42-x");
    EXPECT_EQ(strfmt("%.2f", 3.14159), "3.14");
    EXPECT_EQ(strfmt("empty"), "empty");
}

TEST(StringUtils, Padding)
{
    EXPECT_EQ(padLeft("ab", 5), "   ab");
    EXPECT_EQ(padRight("ab", 5), "ab   ");
    EXPECT_EQ(padLeft("abcdef", 3), "abcdef");
}

TEST(StringUtils, FixedAndPercent)
{
    EXPECT_EQ(fixed(1.23456, 2), "1.23");
    EXPECT_EQ(percent(0.343, 1), "34.3%");
    EXPECT_EQ(percent(1.0, 0), "100%");
}

TEST(StringUtils, ParseNumberTakesWholeFiniteTokens)
{
    const std::pair<const char *, double> good[] = {
        {"0.25", 0.25}, {"-3", -3}, {"+2", 2}, {"1e3", 1000}, {"2.5E-1", 0.25}};
    for (const auto &[text, want] : good) {
        double d = 0;
        EXPECT_TRUE(parseNumber(text, d)) << text;
        EXPECT_EQ(d, want) << text;
    }
    for (const char *bad : {"", " 5", "5 ", "5%", "abc", "1.2.3", "e3", "inf",
                            "-inf", "nan", "infinity", "1e999"}) {
        double d = 7;
        EXPECT_FALSE(parseNumber(bad, d)) << "'" << bad << "'";
        EXPECT_EQ(d, 7.0) << "'" << bad << "' wrote its output";
    }
}

TEST(StringUtils, ParseNumberIntegers)
{
    const std::pair<const char *, int64_t> good[] = {
        {"42", 42}, {"-3", -3}, {"+2", 2}, {"9223372036854775807", INT64_MAX}};
    for (const auto &[text, want] : good) {
        int64_t n = 0;
        EXPECT_TRUE(parseNumber(text, n)) << text;
        EXPECT_EQ(n, want) << text;
    }
    for (const char *bad : {"", " 5", "5x", "1.5", "1e3", "0x10", "nan",
                            "9223372036854775808"}) {
        int64_t n = 7;
        EXPECT_FALSE(parseNumber(bad, n)) << "'" << bad << "'";
        EXPECT_EQ(n, 7) << "'" << bad << "' wrote its output";
    }
}

TEST(Units, FormatBytes)
{
    EXPECT_EQ(formatBytes(512), "512 B");
    EXPECT_EQ(formatBytes(6.0 * 1024 * 1024), "6.0 MiB");
    EXPECT_EQ(formatBytes(2.5 * 1024 * 1024 * 1024), "2.5 GiB");
}

TEST(Units, FormatSi)
{
    EXPECT_EQ(formatSi(1.99e12), "1.99 T");
    EXPECT_EQ(formatSi(705e9, 0), "705 G");
    EXPECT_EQ(formatSi(12.0, 1), "12.0");
}
