#include "common/time.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "common/error.hpp"

namespace hpcfail {
namespace {

TEST(DaysFromCivil, EpochIsZero) {
  EXPECT_EQ(days_from_civil(1970, 1, 1), 0);
}

TEST(DaysFromCivil, KnownDates) {
  EXPECT_EQ(days_from_civil(1970, 1, 2), 1);
  EXPECT_EQ(days_from_civil(1969, 12, 31), -1);
  EXPECT_EQ(days_from_civil(2000, 1, 1), 10957);
  // The paper's observation window endpoints.
  EXPECT_EQ(days_from_civil(1996, 6, 1), 9648);
  EXPECT_EQ(days_from_civil(2005, 11, 30), 13117);
}

TEST(CivilFromDays, RoundTripsAcrossFourCenturies) {
  // Covers leap years, century non-leaps, and the 400-year leap.
  for (std::int64_t day = days_from_civil(1900, 1, 1);
       day <= days_from_civil(2100, 1, 1); day += 13) {
    int y = 0;
    int m = 0;
    int d = 0;
    civil_from_days(day, y, m, d);
    EXPECT_EQ(days_from_civil(y, m, d), day);
    EXPECT_TRUE(is_valid_date(y, m, d));
  }
}

TEST(DaysInMonth, HandlesLeapYears) {
  EXPECT_EQ(days_in_month(2000, 2), 29);  // divisible by 400: leap
  EXPECT_EQ(days_in_month(1900, 2), 28);  // divisible by 100: not leap
  EXPECT_EQ(days_in_month(2004, 2), 29);
  EXPECT_EQ(days_in_month(2005, 2), 28);
  EXPECT_EQ(days_in_month(2005, 4), 30);
  EXPECT_EQ(days_in_month(2005, 12), 31);
}

TEST(IsValidDate, RejectsOutOfRange) {
  EXPECT_FALSE(is_valid_date(2005, 0, 1));
  EXPECT_FALSE(is_valid_date(2005, 13, 1));
  EXPECT_FALSE(is_valid_date(2005, 2, 29));
  EXPECT_FALSE(is_valid_date(2005, 4, 31));
  EXPECT_TRUE(is_valid_date(2004, 2, 29));
}

TEST(ToEpoch, MatchesKnownTimestamps) {
  EXPECT_EQ(to_epoch(1970, 1, 1), 0);
  EXPECT_EQ(to_epoch(CivilDateTime{2000, 1, 1, 12, 30, 15}),
            946729815);
}

TEST(ToEpoch, RejectsInvalidFields) {
  EXPECT_THROW(to_epoch(2005, 2, 29), InvalidArgument);
  EXPECT_THROW(to_epoch(CivilDateTime{2005, 1, 1, 24, 0, 0}),
               InvalidArgument);
  EXPECT_THROW(to_epoch(CivilDateTime{2005, 1, 1, 0, 60, 0}),
               InvalidArgument);
  EXPECT_THROW(to_epoch(CivilDateTime{2005, 1, 1, 0, 0, -1}),
               InvalidArgument);
}

TEST(FromEpoch, RoundTrips) {
  const CivilDateTime cdt{1997, 7, 15, 23, 59, 59};
  EXPECT_EQ(from_epoch(to_epoch(cdt)), cdt);
}

TEST(FromEpoch, HandlesNegativeTimes) {
  const CivilDateTime cdt = from_epoch(-1);
  EXPECT_EQ(cdt.year, 1969);
  EXPECT_EQ(cdt.month, 12);
  EXPECT_EQ(cdt.day, 31);
  EXPECT_EQ(cdt.hour, 23);
  EXPECT_EQ(cdt.minute, 59);
  EXPECT_EQ(cdt.second, 59);
}

TEST(DayOfWeek, KnownDays) {
  EXPECT_EQ(day_of_week(to_epoch(1970, 1, 1)), 4);   // Thursday
  EXPECT_EQ(day_of_week(to_epoch(2005, 11, 27)), 0); // Sunday
  EXPECT_EQ(day_of_week(to_epoch(2005, 11, 28)), 1); // Monday
  EXPECT_EQ(day_of_week(to_epoch(1996, 6, 1)), 6);   // Saturday
}

TEST(DayOfWeek, MidDayDoesNotShift) {
  const Seconds noon = to_epoch(2005, 11, 28) + 12 * kSecondsPerHour;
  EXPECT_EQ(day_of_week(noon), 1);
}

TEST(HourOfDay, ExtractsHour) {
  EXPECT_EQ(hour_of_day(to_epoch(2005, 3, 4)), 0);
  EXPECT_EQ(hour_of_day(to_epoch(2005, 3, 4) + 13 * kSecondsPerHour + 59),
            13);
}

TEST(IsWeekend, MatchesDayOfWeek) {
  EXPECT_TRUE(is_weekend(to_epoch(2005, 11, 27)));   // Sunday
  EXPECT_FALSE(is_weekend(to_epoch(2005, 11, 28)));  // Monday
  EXPECT_TRUE(is_weekend(to_epoch(2005, 11, 26)));   // Saturday
}

TEST(MonthsBetween, CountsWholeMonths) {
  const Seconds start = to_epoch(1997, 1, 1);
  EXPECT_EQ(months_between(start, start), 0);
  EXPECT_EQ(months_between(start, to_epoch(1997, 1, 31)), 0);
  EXPECT_EQ(months_between(start, to_epoch(1997, 2, 1)), 1);
  EXPECT_EQ(months_between(start, to_epoch(1998, 1, 1)), 12);
  EXPECT_EQ(months_between(start, to_epoch(2005, 11, 30)), 106);
}

TEST(MonthsBetween, MidMonthStart) {
  const Seconds start = to_epoch(1997, 1, 15);
  EXPECT_EQ(months_between(start, to_epoch(1997, 2, 14)), 0);
  EXPECT_EQ(months_between(start, to_epoch(1997, 2, 15)), 1);
}

TEST(MonthsBetween, RejectsReversedArguments) {
  EXPECT_THROW(months_between(to_epoch(1998, 1, 1), to_epoch(1997, 1, 1)),
               InvalidArgument);
}

TEST(YearsBetween, ApproximatesCalendarYears) {
  EXPECT_NEAR(years_between(to_epoch(1996, 6, 1), to_epoch(2005, 6, 1)),
              9.0, 0.01);
}

TEST(FormatTimestamp, MatchesPrintfAtAndBeyondFourDigitYears) {
  // The fixed-width path covers years 0-9999; every other year falls
  // back to the printf form, which must come out the same.
  for (const Seconds t : {Seconds{0}, Seconds{-62167219200},
                          Seconds{-62167219201}, Seconds{253402300799},
                          Seconds{253402300800}, Seconds{-100000000000}}) {
    const CivilDateTime c = from_epoch(t);
    char expected[64];
    std::snprintf(expected, sizeof expected, "%04d-%02d-%02d %02d:%02d:%02d",
                  c.year, c.month, c.day, c.hour, c.minute, c.second);
    EXPECT_EQ(format_timestamp(t), expected) << t;
  }
}

TEST(FormatTimestamp, CanonicalForm) {
  EXPECT_EQ(format_timestamp(to_epoch(CivilDateTime{2005, 11, 9, 8, 7, 6})),
            "2005-11-09 08:07:06");
}

TEST(ParseTimestamp, ParsesBothForms) {
  EXPECT_EQ(parse_timestamp("2005-11-09 08:07:06"),
            to_epoch(CivilDateTime{2005, 11, 9, 8, 7, 6}));
  EXPECT_EQ(parse_timestamp("2005-11-09"), to_epoch(2005, 11, 9));
}

TEST(ParseTimestamp, RoundTripsWithFormat) {
  const Seconds t = to_epoch(CivilDateTime{1999, 2, 28, 23, 0, 1});
  EXPECT_EQ(parse_timestamp(format_timestamp(t)), t);
}

TEST(ParseTimestamp, ExtremeYearsRoundTripExactly) {
  // January of year INT_MIN once overflowed int inside days_from_civil
  // (y - 1); every year that fits int is a date that round-trips.
  for (const char* text :
       {"-2147483648-01-01 00:00:00", "-2147483648-02-29 12:00:00",
        "2147483647-12-31 23:59:59"}) {
    EXPECT_EQ(format_timestamp(parse_timestamp(text)), text);
  }
  EXPECT_LT(parse_timestamp("-2147483648-01-01"),
            parse_timestamp("-2147483648-03-01"));
  EXPECT_THROW(parse_timestamp("-2147483649-01-01"), ParseError);
  EXPECT_THROW(parse_timestamp("2147483648-01-01"), ParseError);
}

TEST(ParseTimestamp, RejectsMalformedInput) {
  EXPECT_THROW(parse_timestamp(""), ParseError);
  EXPECT_THROW(parse_timestamp("not a date"), ParseError);
  EXPECT_THROW(parse_timestamp("2005-13-01"), ParseError);
  EXPECT_THROW(parse_timestamp("2005-02-29"), ParseError);
  EXPECT_THROW(parse_timestamp("2005-11-09 25:00:00"), ParseError);
  EXPECT_THROW(parse_timestamp("2005-11-09 08:07:06 trailing"), ParseError);
}

}  // namespace
}  // namespace hpcfail
