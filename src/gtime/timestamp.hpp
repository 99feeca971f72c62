// Time handling for GDELT 2.0 data.
//
// GDELT encodes times as decimal YYYYMMDDHHMMSS integers and publishes one
// Events + Mentions file pair every 15 minutes. The paper measures
// publishing delay in units of these 15-minute capture intervals, and
// aggregates trends by calendar quarter. This module provides exact civil
// calendar math (Hinnant's algorithms) with strict validation — the
// preprocessing tool relies on it to detect the malformed records counted
// in Table II.
#pragma once

#include <cstdint>
#include <string>

#include "util/status.hpp"

namespace gdelt {

/// A Gregorian calendar date-time (no timezone; GDELT is UTC).
struct CivilDateTime {
  std::int32_t year = 1970;
  std::uint8_t month = 1;   ///< 1..12
  std::uint8_t day = 1;     ///< 1..31
  std::uint8_t hour = 0;    ///< 0..23
  std::uint8_t minute = 0;  ///< 0..59
  std::uint8_t second = 0;  ///< 0..59

  friend bool operator==(const CivilDateTime&, const CivilDateTime&) = default;
};

/// True for Gregorian leap years.
constexpr bool IsLeapYear(std::int32_t y) noexcept {
  return y % 4 == 0 && (y % 100 != 0 || y % 400 == 0);
}

/// Days in a month (1..12) of a given year.
constexpr int DaysInMonth(std::int32_t year, unsigned month) noexcept {
  constexpr int kDays[] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};
  if (month == 2 && IsLeapYear(year)) return 29;
  return kDays[month - 1];
}

/// Days since 1970-01-01 for a civil date (proleptic Gregorian).
std::int64_t DaysFromCivil(std::int32_t y, unsigned m, unsigned d) noexcept;

/// Inverse of DaysFromCivil.
void CivilFromDays(std::int64_t days, std::int32_t& y, unsigned& m,
                   unsigned& d) noexcept;

/// Seconds since the Unix epoch for a civil date-time (UTC).
std::int64_t ToUnixSeconds(const CivilDateTime& t) noexcept;

/// Civil date-time (UTC) for a Unix timestamp.
CivilDateTime FromUnixSeconds(std::int64_t seconds) noexcept;

/// Packs into GDELT's YYYYMMDDHHMMSS decimal encoding.
std::uint64_t ToGdeltTimestamp(const CivilDateTime& t) noexcept;

/// Parses and fully validates a YYYYMMDDHHMMSS value (month/day ranges,
/// leap years, hour/minute/second bounds). Returns ParseError on violation.
Result<CivilDateTime> ParseGdeltTimestamp(std::uint64_t packed) noexcept;

/// Parses the textual form, e.g. "20150218230000".
Result<CivilDateTime> ParseGdeltTimestamp(std::string_view text) noexcept;

/// Formats as the 14-digit GDELT string.
std::string FormatGdeltTimestamp(const CivilDateTime& t);

// ---------------------------------------------------------------------------
// 15-minute capture intervals

/// Index of a 15-minute capture interval, counted from the Unix epoch.
/// The paper's publishing delay (Figures 9-11, Table VIII) is a difference
/// of two IntervalIds.
using IntervalId = std::int64_t;

constexpr std::int64_t kSecondsPerInterval = 15 * 60;
/// Intervals per day: 96 == the paper's "24 hour news cycle" boundary.
constexpr std::int64_t kIntervalsPerDay = 96;

/// The interval containing a given time (floor).
IntervalId IntervalOfUnixSeconds(std::int64_t seconds) noexcept;
IntervalId IntervalOfCivil(const CivilDateTime& t) noexcept;

/// Start of an interval as Unix seconds / civil time.
std::int64_t IntervalStartUnixSeconds(IntervalId id) noexcept;
CivilDateTime IntervalStartCivil(IntervalId id) noexcept;

// ---------------------------------------------------------------------------
// Quarters

/// A calendar quarter, densely ordered: year * 4 + quarter_index.
/// Trend figures (3, 4, 5, 6, 10, 11) bucket by QuarterId.
using QuarterId = std::int32_t;

QuarterId QuarterOfCivil(const CivilDateTime& t) noexcept;
QuarterId QuarterOfUnixSeconds(std::int64_t seconds) noexcept;

/// Quarter label, e.g. "2015Q1".
std::string QuarterLabel(QuarterId q);

/// First civil instant of the quarter (any year, negative ones included).
CivilDateTime QuarterStartCivil(QuarterId q) noexcept;

/// First capture interval of the quarter: QuarterOfUnixSeconds(
/// IntervalStartUnixSeconds(iv)) == q exactly for the intervals in
/// [QuarterStartInterval(q), QuarterStartInterval(q + 1)).
IntervalId QuarterStartInterval(QuarterId q) noexcept;

/// Makes a QuarterId from (year, quarter 1..4).
constexpr QuarterId MakeQuarter(std::int32_t year, int quarter) noexcept {
  return year * 4 + (quarter - 1);
}

}  // namespace gdelt
