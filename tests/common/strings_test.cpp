#include "common/strings.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "common/error.hpp"

namespace hpcfail {
namespace {

TEST(Trim, StripsBothEnds) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("\t a b \n"), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(ToLower, AsciiOnly) {
  EXPECT_EQ(to_lower("Hardware"), "hardware");
  EXPECT_EQ(to_lower("ABC123xyz"), "abc123xyz");
}

TEST(Split, KeepsEmptyFields) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Split, EmptyStringGivesOneEmptyField) {
  const auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Split, TrailingSeparator) {
  const auto parts = split("a,b,", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[2], "");
}

TEST(ParseI64, ParsesSignedIntegers) {
  EXPECT_EQ(parse_int<std::int64_t>("0"), 0);
  EXPECT_EQ(parse_int<std::int64_t>("-42"), -42);
  EXPECT_EQ(parse_int<std::int64_t>("9223372036854775807"),
            9223372036854775807LL);
}

TEST(ParseI64, RejectsGarbage) {
  EXPECT_THROW(parse_int<std::int64_t>(""), ParseError);
  EXPECT_THROW(parse_int<std::int64_t>("12x"), ParseError);
  EXPECT_THROW(parse_int<std::int64_t>("x12"), ParseError);
  EXPECT_THROW(parse_int<std::int64_t>("1.5"), ParseError);
  EXPECT_THROW(parse_int<std::int64_t>("99999999999999999999"),
               ParseError);  // overflow
}

TEST(ParseInt, AcceptsEachTypesFullRange) {
  EXPECT_EQ(parse_int<int>("2147483647"), 2147483647);
  EXPECT_EQ(parse_int<int>("-2147483648"), -2147483647 - 1);
  EXPECT_EQ(parse_int<unsigned>("4294967295"), 4294967295u);
  EXPECT_EQ(parse_int<std::int64_t>("-9223372036854775808"),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(parse_int<std::uint64_t>("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_int<std::size_t>("0"), 0u);
}

TEST(ParseInt, RejectsValuesThatDoNotFitTheType) {
  // Each row once parsed to 64 bits and narrowed on the way in: 2^32 + 1
  // became 1, 2^32 became 0.
  const struct {
    const char* text;
    bool fits_int;
    bool fits_unsigned;
    bool fits_i64;
    bool fits_u64;
  } kRows[] = {
      {"2147483648", false, true, true, true},
      {"4294967296", false, false, true, true},
      {"4294967297", false, false, true, true},
      {"-1", true, false, true, false},
      {"9223372036854775807", false, false, true, true},
      {"9223372036854775808", false, false, false, true},
      {"-9223372036854775808", false, false, true, false},
      {"-9223372036854775809", false, false, false, false},
      {"18446744073709551616", false, false, false, false},
      {"+1", false, false, false, false},
      {" 1", false, false, false, false},
      {"1 ", false, false, false, false},
      {"-", false, false, false, false},
  };
  const auto fits = [](auto parse) {
    try {
      parse();
      return true;
    } catch (const ParseError&) {
      return false;
    }
  };
  for (const auto& row : kRows) {
    const std::string_view s = row.text;
    EXPECT_EQ(fits([s] { return parse_int<int>(s); }), row.fits_int) << s;
    EXPECT_EQ(fits([s] { return parse_int<unsigned>(s); }),
              row.fits_unsigned)
        << s;
    EXPECT_EQ(fits([s] { return parse_int<std::int64_t>(s); }),
              row.fits_i64)
        << s;
    EXPECT_EQ(fits([s] { return parse_int<std::uint64_t>(s); }),
              row.fits_u64)
        << s;
  }
}

TEST(ParseInt, ErrorNamesTheRangeAndTheText) {
  try {
    parse_int<int>("4294967297");
    FAIL() << "should have thrown";
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(),
                 "not an integer in [-2147483648, 2147483647]: "
                 "'4294967297'");
  }
}

TEST(ParseDouble, ParsesNumbers) {
  EXPECT_DOUBLE_EQ(parse_double("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(parse_double("-1e-3"), -1e-3);
  EXPECT_DOUBLE_EQ(parse_double("0"), 0.0);
}

TEST(ParseDouble, RejectsGarbageAndNonFinite) {
  EXPECT_THROW(parse_double(""), ParseError);
  EXPECT_THROW(parse_double("abc"), ParseError);
  EXPECT_THROW(parse_double("1.5x"), ParseError);
  EXPECT_THROW(parse_double("1e999"), ParseError);  // overflows to inf
}

TEST(FormatDouble, TrimsTrailingZeros) {
  EXPECT_EQ(format_double(1.5), "1.5");
  EXPECT_EQ(format_double(2.0), "2");
  EXPECT_EQ(format_double(0.125, 3), "0.125");
}

}  // namespace
}  // namespace hpcfail
