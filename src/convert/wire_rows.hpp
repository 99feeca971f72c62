// The GDELT row rules (paper Table II, "malformed rows"), written once.
//
// One typed decoder per wire table turns a tokenised Events or Mentions
// row into the fields the tables store, or names the defect that makes
// the row malformed. The converter and live ingest both decode every row
// here and hold the result in the column sets below, so the two paths
// keep the same rows with the same values. Each path applies the
// duplicate rule itself, since it needs every earlier row: the first
// occurrence of a global event id in master (or ingest) order keeps its
// row, and every later one counts as malformed.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "columnar/table.hpp"
#include "csv/tsv.hpp"
#include "schema/countries.hpp"
#include "schema/gdelt_schema.hpp"

namespace gdelt::convert {

/// Why a wire row is malformed; kNone for a row the tables keep.
enum class RowDefect : std::uint8_t {
  kNone = 0,
  kBadGid,       ///< GlobalEventID is not an unsigned integer
  kBadDay,       ///< Events Day is not a valid YYYYMMDD date
  kBadTime,      ///< a timestamp does not parse or its interval leaves i32
  kEmptySource,  ///< Mentions MentionSourceName is empty
};

/// The fields of one Events row that the events table stores.
struct EventRow {
  static constexpr std::size_t kFieldCount = kEventFieldCount;
  std::uint64_t gid = 0;
  std::int32_t added_interval = 0;  ///< DATEADDED
  CountryId country = kNoCountry;   ///< ActionGeo_CountryCode (FIPS 10-4)
  double goldstein = 0.0;
  double avg_tone = 0.0;
  std::uint8_t quad_class = 0;
  std::string_view source_url;  ///< may be empty (counted, not malformed)
};

/// The fields of one Mentions row that the mentions table stores, with
/// the event and the source still by wire name.
struct MentionRow {
  static constexpr std::size_t kFieldCount = kMentionFieldCount;
  std::uint64_t gid = 0;
  std::int32_t event_interval = 0;    ///< EventTimeDate
  std::int32_t mention_interval = 0;  ///< MentionTimeDate
  std::string_view source_name;       ///< never empty
  std::uint8_t confidence = 0;
};

/// The last valid text of each of a row's two time fields (events: Day
/// and DATEADDED; mentions: EventTimeDate and MentionTimeDate) with its
/// interval. GDELT gives every row of a 15-minute file one capture time,
/// so a row mostly repeats the one before, and a repeat skips the parse.
/// The texts view the decoded buffer.
struct TimeMemo {
  std::string_view text[2];
  std::int32_t interval[2] = {0, 0};
};

/// Decodes one row of Row::kFieldCount fields into `out`, or returns the
/// defect that makes it malformed. `memo` carries the previous row's times
/// of the same buffer (a fresh one for a row on its own).
RowDefect DecodeRow(const std::vector<std::string_view>& f, EventRow& out,
                    TimeMemo& memo);
RowDefect DecodeRow(const std::vector<std::string_view>& f, MentionRow& out,
                    TimeMemo& memo);

/// Streams one CSV's rows through DecodeRow: Next yields each row without
/// a defect, and malformed() counts the rest, RowReader's short and long
/// lines included.
template <typename Row>
class RowDecoder {
 public:
  explicit RowDecoder(std::string_view csv) noexcept
      : rows_(csv, Row::kFieldCount) {}

  bool Next(Row& row) {
    const std::vector<std::string_view>* fields = nullptr;
    while (rows_.Next(fields)) {
      if (DecodeRow(*fields, row, memo_) == RowDefect::kNone) return true;
      ++defective_;
    }
    return false;
  }

  std::uint64_t malformed() const noexcept {
    return defective_ + rows_.errors().size();
  }

 private:
  RowReader rows_;
  TimeMemo memo_;
  std::uint64_t defective_ = 0;
};

/// The events table's columns (events_col), to append to.
struct EventColumns {
  Column* global_id;
  Column* added_interval;
  Column* country;
  Column* goldstein;
  Column* avg_tone;
  Column* quad_class;
  Column* source_url;

  void Append(const EventRow& row) const;
};
EventColumns AddEventColumns(Table& table);

/// The mentions table's columns (mentions_col), to append to; the caller
/// resolves each row's event row and source id.
struct MentionColumns {
  Column* event_row;
  Column* event_interval;
  Column* mention_interval;
  Column* source_id;
  Column* confidence;

  void Append(const MentionRow& row, std::uint32_t event_row_value,
              std::uint32_t source_id_value) const;
};
MentionColumns AddMentionColumns(Table& table);

/// Typed views of an events table's columns. The loaded database, each
/// delta chunk and the converter's merge bind them once with Bind, which
/// is DataLoss if a column is missing or of another type.
struct EventSpans {
  std::span<const std::uint64_t> global_id;
  std::span<const std::int32_t> added_interval;
  std::span<const std::uint16_t> country;
  std::span<const double> goldstein;
  std::span<const double> avg_tone;
  std::span<const std::uint8_t> quad_class;
  std::span<const std::uint64_t> source_url_offsets;
  std::string_view source_url_chars;

  std::string_view source_url(std::size_t r) const noexcept {
    const std::uint64_t b = source_url_offsets[r];
    return source_url_chars.substr(b, source_url_offsets[r + 1] - b);
  }
  EventRow Row(std::size_t r) const noexcept {
    return {global_id[r], added_interval[r], country[r],    goldstein[r],
            avg_tone[r],  quad_class[r],     source_url(r)};
  }
  static Result<EventSpans> Bind(const Table& table);
};

/// Typed views of a mentions table's columns, bound the same way.
struct MentionSpans {
  std::span<const std::uint32_t> event_row;
  std::span<const std::int32_t> event_interval;
  std::span<const std::int32_t> mention_interval;
  std::span<const std::uint32_t> source_id;
  std::span<const std::uint8_t> confidence;

  static Result<MentionSpans> Bind(const Table& table);
};

}  // namespace gdelt::convert
