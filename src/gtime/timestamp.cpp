#include "gtime/timestamp.hpp"

#include "util/strings.hpp"

namespace gdelt {

std::int64_t DaysFromCivil(std::int32_t y, unsigned m, unsigned d) noexcept {
  // Howard Hinnant's days_from_civil, shifting March to month 0 so leap days
  // land at the end of the internal year.
  y -= m <= 2;
  const std::int64_t era = (y >= 0 ? y : y - 399) / 400;
  const auto yoe = static_cast<unsigned>(y - era * 400);             // [0,399]
  const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<std::int64_t>(doe) - 719468;
}

void CivilFromDays(std::int64_t days, std::int32_t& y, unsigned& m,
                   unsigned& d) noexcept {
  days += 719468;
  const std::int64_t era = (days >= 0 ? days : days - 146096) / 146097;
  const auto doe = static_cast<unsigned>(days - era * 146097);  // [0,146096]
  const unsigned yoe =
      (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;    // [0,399]
  const auto internal_year = static_cast<std::int32_t>(yoe) +
                             static_cast<std::int32_t>(era) * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);  // [0,365]
  const unsigned mp = (5 * doy + 2) / 153;                       // [0,11]
  d = doy - (153 * mp + 2) / 5 + 1;
  m = mp + (mp < 10 ? 3 : -9);
  y = internal_year + (m <= 2);
}

std::int64_t ToUnixSeconds(const CivilDateTime& t) noexcept {
  return DaysFromCivil(t.year, t.month, t.day) * 86400 + t.hour * 3600 +
         t.minute * 60 + t.second;
}

CivilDateTime FromUnixSeconds(std::int64_t seconds) noexcept {
  std::int64_t days = seconds / 86400;
  std::int64_t rem = seconds % 86400;
  if (rem < 0) {
    rem += 86400;
    --days;
  }
  CivilDateTime t;
  unsigned m = 0;
  unsigned d = 0;
  CivilFromDays(days, t.year, m, d);
  t.month = static_cast<std::uint8_t>(m);
  t.day = static_cast<std::uint8_t>(d);
  t.hour = static_cast<std::uint8_t>(rem / 3600);
  t.minute = static_cast<std::uint8_t>((rem % 3600) / 60);
  t.second = static_cast<std::uint8_t>(rem % 60);
  return t;
}

std::uint64_t ToGdeltTimestamp(const CivilDateTime& t) noexcept {
  return static_cast<std::uint64_t>(t.year) * 10000000000ull +
         static_cast<std::uint64_t>(t.month) * 100000000ull +
         static_cast<std::uint64_t>(t.day) * 1000000ull +
         static_cast<std::uint64_t>(t.hour) * 10000ull +
         static_cast<std::uint64_t>(t.minute) * 100ull + t.second;
}

namespace {

/// The checks both encodings of a GDELT timestamp pass.
Result<CivilDateTime> Validated(const CivilDateTime& t) noexcept {
  if (t.year < 1900) {
    return status::ParseError("timestamp year " + std::to_string(t.year) +
                              " before 1900");
  }
  if (t.month < 1 || t.month > 12) {
    return status::ParseError("timestamp month out of range");
  }
  if (t.day < 1 || t.day > DaysInMonth(t.year, t.month)) {
    return status::ParseError("timestamp day out of range");
  }
  if (t.hour > 23 || t.minute > 59 || t.second > 59) {
    return status::ParseError("timestamp time-of-day out of range");
  }
  return t;
}

}  // namespace

Result<CivilDateTime> ParseGdeltTimestamp(std::uint64_t packed) noexcept {
  CivilDateTime t;
  t.second = static_cast<std::uint8_t>(packed % 100);
  packed /= 100;
  t.minute = static_cast<std::uint8_t>(packed % 100);
  packed /= 100;
  t.hour = static_cast<std::uint8_t>(packed % 100);
  packed /= 100;
  t.day = static_cast<std::uint8_t>(packed % 100);
  packed /= 100;
  t.month = static_cast<std::uint8_t>(packed % 100);
  packed /= 100;
  if (packed > 9999) {
    return status::ParseError("timestamp year out of range");
  }
  t.year = static_cast<std::int32_t>(packed);
  return Validated(t);
}

Result<CivilDateTime> ParseGdeltTimestamp(std::string_view text) noexcept {
  if (text.size() != 14) {
    return status::ParseError("timestamp must be 14 digits, got '" +
                              std::string(text) + "'");
  }
  // Digit pairs go straight into the fields: every decoded wire row
  // parses up to two of these, and packing into a u64 (from_chars) only
  // to divide it apart again costs about a third of the parse.
  unsigned digit[14];
  for (std::size_t i = 0; i < 14; ++i) {
    digit[i] = static_cast<unsigned>(static_cast<unsigned char>(text[i])) -
               static_cast<unsigned>('0');
    if (digit[i] > 9) {
      return status::ParseError("timestamp is not numeric: '" +
                                std::string(text) + "'");
    }
  }
  const auto pair = [&digit](std::size_t i) {
    return static_cast<std::uint8_t>(digit[i] * 10 + digit[i + 1]);
  };
  CivilDateTime t;
  t.year = pair(0) * 100 + pair(2);
  t.month = pair(4);
  t.day = pair(6);
  t.hour = pair(8);
  t.minute = pair(10);
  t.second = pair(12);
  return Validated(t);
}

std::string FormatGdeltTimestamp(const CivilDateTime& t) {
  return StrFormat("%04d%02u%02u%02u%02u%02u", t.year, t.month, t.day, t.hour,
                   t.minute, t.second);
}

IntervalId IntervalOfUnixSeconds(std::int64_t seconds) noexcept {
  // Floor division (timestamps before 1970 round down, not toward zero).
  std::int64_t q = seconds / kSecondsPerInterval;
  if (seconds % kSecondsPerInterval < 0) --q;
  return q;
}

IntervalId IntervalOfCivil(const CivilDateTime& t) noexcept {
  return IntervalOfUnixSeconds(ToUnixSeconds(t));
}

std::int64_t IntervalStartUnixSeconds(IntervalId id) noexcept {
  return id * kSecondsPerInterval;
}

CivilDateTime IntervalStartCivil(IntervalId id) noexcept {
  return FromUnixSeconds(IntervalStartUnixSeconds(id));
}

QuarterId QuarterOfCivil(const CivilDateTime& t) noexcept {
  return t.year * 4 + (t.month - 1) / 3;
}

QuarterId QuarterOfUnixSeconds(std::int64_t seconds) noexcept {
  return QuarterOfCivil(FromUnixSeconds(seconds));
}

std::string QuarterLabel(QuarterId q) {
  return StrFormat("%dQ%d", q / 4, q % 4 + 1);
}

CivilDateTime QuarterStartCivil(QuarterId q) noexcept {
  // Floor division, so a quarter of a negative year keeps its month.
  const std::int32_t year = (q >= 0 ? q : q - 3) / 4;
  CivilDateTime t;
  t.year = year;
  t.month = static_cast<std::uint8_t>((q - year * 4) * 3 + 1);
  t.day = 1;
  return t;
}

IntervalId QuarterStartInterval(QuarterId q) noexcept {
  // A quarter starts at midnight, which is an interval boundary.
  return IntervalOfCivil(QuarterStartCivil(q));
}

}  // namespace gdelt
