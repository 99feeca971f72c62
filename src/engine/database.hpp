// The in-memory GDELT database.
//
// Loads the converter's binary tables, materializes the inverted indexes
// (event -> mentions, source -> mentions) and derived columns (source ->
// country via TLD), and hands out typed spans for the query kernels. After
// Load() everything is read-only — the paper's core architectural bet —
// so queries run lock-free across all threads.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "columnar/csr.hpp"
#include "columnar/dictionary.hpp"
#include "columnar/table.hpp"
#include "schema/countries.hpp"
#include "util/status.hpp"

namespace gdelt::engine {

/// Read-only, fully materialized database.
class Database {
 public:
  /// Mention rows per block of the capture-interval zone map.
  static constexpr std::size_t kZoneRows = 4096;

  /// Loads a directory written by convert::ConvertDataset.
  static Result<Database> Load(const std::string& dir);

  // --- sizes ---
  std::size_t num_events() const noexcept { return num_events_; }
  std::size_t num_mentions() const noexcept { return num_mentions_; }
  std::uint32_t num_sources() const noexcept { return sources_.size(); }

  // --- mentions columns ---
  std::span<const std::uint32_t> mention_event_row() const noexcept {
    return mention_event_row_;
  }
  std::span<const std::int64_t> mention_event_interval() const noexcept {
    return mention_event_interval_;
  }
  std::span<const std::int64_t> mention_interval() const noexcept {
    return mention_interval_;
  }
  std::span<const std::uint32_t> mention_source_id() const noexcept {
    return mention_source_id_;
  }
  std::span<const std::uint8_t> mention_confidence() const noexcept {
    return mention_confidence_;
  }

  // --- events columns ---
  std::span<const std::uint64_t> event_global_id() const noexcept {
    return event_global_id_;
  }
  std::span<const std::int64_t> event_added_interval() const noexcept {
    return event_added_interval_;
  }
  std::span<const std::uint16_t> event_country() const noexcept {
    return event_country_;
  }
  /// Average document tone of each event.
  std::span<const double> events_tone() const noexcept { return event_tone_; }
  /// Goldstein conflict-cooperation score of each event.
  std::span<const double> event_goldstein() const noexcept {
    return event_goldstein_;
  }
  /// CAMEO quad class (1..4) of each event.
  std::span<const std::uint8_t> event_quad_class() const noexcept {
    return event_quad_class_;
  }
  /// First-article URL of event row r.
  std::string_view event_source_url(std::size_t r) const noexcept {
    return events_.GetColumn("source_url").StringAt(r);
  }

  // --- derived ---
  /// Country of each dictionary source (TLD heuristic); kNoCountry if the
  /// TLD is unknown.
  std::span<const std::uint16_t> source_country() const noexcept {
    return source_country_;
  }
  /// True article count per event row (orphans excluded).
  std::span<const std::uint32_t> event_article_count() const noexcept {
    return event_article_count_;
  }
  /// Articles per source id over the whole table.
  std::span<const std::uint64_t> source_article_count() const noexcept {
    return source_article_count_;
  }
  /// Located events per country (events without a country excluded).
  std::span<const std::uint64_t> country_event_count() const noexcept {
    return country_event_count_;
  }
  /// Articles per publishing country (sources without one excluded).
  std::span<const std::uint64_t> country_article_count() const noexcept {
    return country_article_count_;
  }

  // --- zone map ---
  /// Smallest and largest mention_interval of each block of kZoneRows
  /// mention rows (the last block may be shorter). Exact for any row
  /// order; tight because the converter writes capture order, so a time
  /// window overlaps only the blocks of its own stretch of the table.
  std::span<const std::int64_t> zone_min_interval() const noexcept {
    return zone_min_interval_;
  }
  std::span<const std::int64_t> zone_max_interval() const noexcept {
    return zone_max_interval_;
  }

  // --- indexes ---
  /// Mentions of each event row, ascending capture time.
  const CsrIndex& mentions_by_event() const noexcept {
    return mentions_by_event_;
  }
  /// Mentions of each source id, ascending capture time.
  const CsrIndex& mentions_by_source() const noexcept {
    return mentions_by_source_;
  }

  /// Memoized event -> distinct-source index: for every event row, the
  /// sorted, deduplicated source ids that reported on it. Built lazily in
  /// parallel on first use (thread-safe) and cached for the lifetime of
  /// the database; the whole co-reporting query family shares it instead
  /// of re-walking mentions_by_event() and re-sorting per event on every
  /// invocation.
  const CsrSetIndex& event_distinct_sources() const;

  const StringDictionary& sources() const noexcept { return sources_; }

  /// Domain name of a source id.
  std::string_view source_domain(std::uint32_t id) const noexcept {
    return sources_.At(id);
  }

  /// Timeline bounds over mention capture intervals ([first, last]).
  std::int64_t first_interval() const noexcept { return first_interval_; }
  std::int64_t last_interval() const noexcept { return last_interval_; }

  /// Total heap footprint (tables + indexes), for the load report.
  std::size_t MemoryBytes() const noexcept;

 private:
  Table events_;
  Table mentions_;
  StringDictionary sources_;

  std::size_t num_events_ = 0;
  std::size_t num_mentions_ = 0;

  // cached spans into the tables
  std::span<const std::uint32_t> mention_event_row_;
  std::span<const std::int64_t> mention_event_interval_;
  std::span<const std::int64_t> mention_interval_;
  std::span<const std::uint32_t> mention_source_id_;
  std::span<const std::uint8_t> mention_confidence_;
  std::span<const std::uint64_t> event_global_id_;
  std::span<const std::int64_t> event_added_interval_;
  std::span<const std::uint16_t> event_country_;
  std::span<const double> event_tone_;
  std::span<const double> event_goldstein_;
  std::span<const std::uint8_t> event_quad_class_;

  std::vector<std::uint16_t> source_country_;
  std::vector<std::uint32_t> event_article_count_;
  std::vector<std::uint64_t> source_article_count_;
  std::vector<std::uint64_t> country_event_count_;
  std::vector<std::uint64_t> country_article_count_;
  std::vector<std::int64_t> zone_min_interval_;
  std::vector<std::int64_t> zone_max_interval_;
  CsrIndex mentions_by_event_;
  CsrIndex mentions_by_source_;
  std::int64_t first_interval_ = 0;
  std::int64_t last_interval_ = 0;

  // Lazily built query-side indexes. Held behind a pointer so Database
  // stays movable (std::once_flag is not).
  struct LazyIndexes {
    std::once_flag distinct_sources_once;
    CsrSetIndex distinct_sources;
  };
  std::unique_ptr<LazyIndexes> lazy_ = std::make_unique<LazyIndexes>();
};

}  // namespace gdelt::engine
