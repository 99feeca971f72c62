#include "convert/wire_rows.hpp"

#include <limits>

#include "convert/binary_format.hpp"
#include "gtime/timestamp.hpp"
#include "util/strings.hpp"

namespace gdelt::convert {
namespace {

/// Parses a 14-digit GDELT timestamp into the i32 interval the tables
/// store; false on malformed input or an interval outside i32.
bool FieldToInterval(std::string_view field, std::int32_t& out) {
  const auto parsed = ParseGdeltTimestamp(field);
  if (!parsed.ok()) return false;
  const IntervalId interval = IntervalOfCivil(parsed.value());
  if (interval < std::numeric_limits<std::int32_t>::min() ||
      interval > std::numeric_limits<std::int32_t>::max()) {
    return false;
  }
  out = static_cast<std::int32_t>(interval);
  return true;
}

/// True if the Events "Day" field (YYYYMMDD) is a valid date. The day is
/// not stored, but a row with a bad one is malformed (Table II).
bool ValidDay(std::string_view field) {
  const auto day = ParseUint64(field);
  if (!day || *day < 19000101 || *day > 99991231) return false;
  return ParseGdeltTimestamp(*day * 1000000ull).ok();  // midnight
}

/// FieldToInterval through memo slot `slot`: a repeat of the slot's last
/// valid text reuses its interval.
bool MemoInterval(std::string_view field, TimeMemo& memo, int slot,
                  std::int32_t& out) {
  if (field.empty() || field != memo.text[slot]) {
    if (!FieldToInterval(field, memo.interval[slot])) return false;
    memo.text[slot] = field;
  }
  out = memo.interval[slot];
  return true;
}

std::uint8_t FieldToU8(std::string_view field) {
  return static_cast<std::uint8_t>(ParseUint64(field).value_or(0));
}

}  // namespace

RowDefect DecodeRow(const std::vector<std::string_view>& f, EventRow& out,
                    TimeMemo& memo) {
  const auto gid = ParseUint64(f[Index(EventField::kGlobalEventId)]);
  if (!gid) return RowDefect::kBadGid;
  const std::string_view day = f[Index(EventField::kDay)];
  if (day.empty() || day != memo.text[0]) {
    if (!ValidDay(day)) return RowDefect::kBadDay;
    memo.text[0] = day;
  }
  if (!MemoInterval(f[Index(EventField::kDateAdded)], memo, 1,
                    out.added_interval)) {
    return RowDefect::kBadTime;
  }
  out.gid = *gid;
  out.country = CountryByFips(f[Index(EventField::kActionGeoCountryCode)])
                    .value_or(kNoCountry);
  out.goldstein =
      ParseDouble(f[Index(EventField::kGoldsteinScale)]).value_or(0.0);
  out.avg_tone = ParseDouble(f[Index(EventField::kAvgTone)]).value_or(0.0);
  out.quad_class = FieldToU8(f[Index(EventField::kQuadClass)]);
  out.source_url = f[Index(EventField::kSourceUrl)];
  return RowDefect::kNone;
}

RowDefect DecodeRow(const std::vector<std::string_view>& f, MentionRow& out,
                    TimeMemo& memo) {
  const auto gid = ParseUint64(f[Index(MentionField::kGlobalEventId)]);
  if (!gid) return RowDefect::kBadGid;
  if (!MemoInterval(f[Index(MentionField::kEventTimeDate)], memo, 0,
                    out.event_interval) ||
      !MemoInterval(f[Index(MentionField::kMentionTimeDate)], memo, 1,
                    out.mention_interval)) {
    return RowDefect::kBadTime;
  }
  out.source_name = f[Index(MentionField::kMentionSourceName)];
  if (out.source_name.empty()) return RowDefect::kEmptySource;
  out.gid = *gid;
  out.confidence = FieldToU8(f[Index(MentionField::kConfidence)]);
  return RowDefect::kNone;
}

void EventColumns::Append(const EventRow& row) const {
  global_id->Append<std::uint64_t>(row.gid);
  added_interval->Append<std::int32_t>(row.added_interval);
  country->Append<std::uint16_t>(row.country);
  goldstein->Append<double>(row.goldstein);
  avg_tone->Append<double>(row.avg_tone);
  quad_class->Append<std::uint8_t>(row.quad_class);
  source_url->AppendString(row.source_url);
}

EventColumns AddEventColumns(Table& t) {
  namespace ec = events_col;
  return {&t.AddColumn(ec::kGlobalId, ColumnType::kU64),
          &t.AddColumn(ec::kAddedInterval, ColumnType::kI32),
          &t.AddColumn(ec::kCountry, ColumnType::kU16),
          &t.AddColumn(ec::kGoldstein, ColumnType::kF64),
          &t.AddColumn(ec::kAvgTone, ColumnType::kF64),
          &t.AddColumn(ec::kQuadClass, ColumnType::kU8),
          &t.AddColumn(ec::kSourceUrl, ColumnType::kStr)};
}

Result<EventSpans> EventSpans::Bind(const Table& t) {
  namespace ec = events_col;
  EventSpans s;
  GDELT_RETURN_IF_ERROR(t.Bind(ec::kGlobalId, s.global_id));
  GDELT_RETURN_IF_ERROR(t.Bind(ec::kAddedInterval, s.added_interval));
  GDELT_RETURN_IF_ERROR(t.Bind(ec::kCountry, s.country));
  GDELT_RETURN_IF_ERROR(t.Bind(ec::kGoldstein, s.goldstein));
  GDELT_RETURN_IF_ERROR(t.Bind(ec::kAvgTone, s.avg_tone));
  GDELT_RETURN_IF_ERROR(t.Bind(ec::kQuadClass, s.quad_class));
  GDELT_ASSIGN_OR_RETURN(const Column* url,
                         t.CheckedColumn(ec::kSourceUrl, ColumnType::kStr));
  s.source_url_offsets = url->offsets();
  s.source_url_chars = url->chars();
  return s;
}

void MentionColumns::Append(const MentionRow& row,
                            std::uint32_t event_row_value,
                            std::uint32_t source_id_value) const {
  event_row->Append<std::uint32_t>(event_row_value);
  event_interval->Append<std::int32_t>(row.event_interval);
  mention_interval->Append<std::int32_t>(row.mention_interval);
  source_id->Append<std::uint32_t>(source_id_value);
  confidence->Append<std::uint8_t>(row.confidence);
}

MentionColumns AddMentionColumns(Table& t) {
  namespace mc = mentions_col;
  return {&t.AddColumn(mc::kEventRow, ColumnType::kU32),
          &t.AddColumn(mc::kEventInterval, ColumnType::kI32),
          &t.AddColumn(mc::kMentionInterval, ColumnType::kI32),
          &t.AddColumn(mc::kSourceId, ColumnType::kU32),
          &t.AddColumn(mc::kConfidence, ColumnType::kU8)};
}

Result<MentionSpans> MentionSpans::Bind(const Table& t) {
  namespace mc = mentions_col;
  MentionSpans s;
  GDELT_RETURN_IF_ERROR(t.Bind(mc::kEventRow, s.event_row));
  GDELT_RETURN_IF_ERROR(t.Bind(mc::kEventInterval, s.event_interval));
  GDELT_RETURN_IF_ERROR(t.Bind(mc::kMentionInterval, s.mention_interval));
  GDELT_RETURN_IF_ERROR(t.Bind(mc::kSourceId, s.source_id));
  GDELT_RETURN_IF_ERROR(t.Bind(mc::kConfidence, s.confidence));
  return s;
}

}  // namespace gdelt::convert
