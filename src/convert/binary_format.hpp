// Names of the files and columns of the converted binary database.
// Shared contract between the converter (writer) and the engine (reader).
#pragma once

#include <string_view>

namespace gdelt::convert {

inline constexpr std::string_view kEventsTableFile = "events.tbl";
inline constexpr std::string_view kMentionsTableFile = "mentions.tbl";
inline constexpr std::string_view kSourcesDictFile = "sources.dict";
inline constexpr std::string_view kReportFile = "convert_report.txt";

// Only the fields a query reads are stored. Intervals are 15-minute ticks
// since 1970 (IntervalId); every parseable GDELT timestamp fits in i32.

// Events table columns (row order = dense event index).
namespace events_col {
inline constexpr std::string_view kGlobalId = "global_id";            // u64
inline constexpr std::string_view kAddedInterval = "added_interval";  // i32
inline constexpr std::string_view kCountry = "country";          // u16, 0xFFFF = untagged
inline constexpr std::string_view kGoldstein = "goldstein";           // f64
inline constexpr std::string_view kAvgTone = "avg_tone";              // f64
inline constexpr std::string_view kQuadClass = "quad_class";          // u8
inline constexpr std::string_view kSourceUrl = "source_url";          // str
}  // namespace events_col

// Mentions table columns (row order = capture order).
namespace mentions_col {
inline constexpr std::string_view kEventRow = "event_row";       // u32 dense; 0xFFFFFFFF = orphan
inline constexpr std::string_view kEventInterval = "event_interval";      // i32
inline constexpr std::string_view kMentionInterval = "mention_interval";  // i32
inline constexpr std::string_view kSourceId = "source_id";       // u32 dictionary id
inline constexpr std::string_view kConfidence = "confidence";    // u8
}  // namespace mentions_col

/// Sentinel for a mention whose event row is unknown (event lost with a
/// missing archive).
inline constexpr std::uint32_t kOrphanEventRow = 0xFFFFFFFFu;

}  // namespace gdelt::convert
