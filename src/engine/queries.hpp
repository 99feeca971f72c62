// Aggregated query kernels over the in-memory database.
//
// These are the "most intensive aggregated queries" the paper parallelizes
// with OpenMP (Sections IV, VI-G). Each kernel is a single scan with
// per-thread partials merged deterministically at the end.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "engine/database.hpp"
#include "gtime/timestamp.hpp"
#include "parallel/parallel.hpp"

namespace gdelt::engine {

/// Article count per source id (Fig 6 input): the whole-table totals
/// Database::Load computed, valid as long as `db`.
std::span<const std::uint64_t> ArticlesPerSource(const Database& db);

/// Source ids with the most articles, descending (ties by id).
std::vector<std::uint32_t> TopSourcesByArticles(const Database& db,
                                                std::size_t k);

/// One row of the Table III result.
struct TopEvent {
  std::uint32_t event_row = 0;
  std::uint32_t articles = 0;
};

/// Event rows with the most articles, descending (Table III).
std::vector<TopEvent> TopReportedEvents(const Database& db, std::size_t k);

/// A per-quarter series starting at `first_quarter`.
struct QuarterSeries {
  QuarterId first_quarter = 0;
  std::vector<std::uint64_t> values;
};

/// Relative quarter index of every mention (parallel precomputation used
/// by the trend queries). Values index from the database's first quarter.
std::vector<std::int32_t> MentionQuarters(const Database& db);

/// Quarter window covered by the database's mentions.
struct QuarterWindow {
  QuarterId first = 0;
  std::int32_t count = 0;
};
QuarterWindow QuartersOf(const Database& db);

/// Articles observed per quarter (Fig 5).
QuarterSeries ArticlesPerQuarter(const Database& db);

/// Events observed per quarter, by DATEADDED (Fig 4).
QuarterSeries EventsPerQuarter(const Database& db);

/// Sources with at least one article in each quarter (Fig 3).
QuarterSeries ActiveSourcesPerQuarter(const Database& db);

/// Per-quarter article counts for each requested source (Fig 6 series).
std::vector<QuarterSeries> SourceArticlesPerQuarter(
    const Database& db, std::span<const std::uint32_t> source_ids);

/// Result of the paper's headline aggregated query: country-cross-reporting
/// (Tables VI and VII; Fig 8) computed in one scan over all mentions.
struct CountryCrossReport {
  std::size_t num_countries = 0;
  /// counts[reported * num_countries + publishing] = articles published in
  /// `publishing` about events located in `reported`.
  std::vector<std::uint64_t> counts;
  /// Articles per publishing country (column totals incl. untagged events).
  std::vector<std::uint64_t> articles_per_publisher;

  std::uint64_t At(CountryId reported, CountryId publishing) const noexcept {
    return counts[static_cast<std::size_t>(reported) * num_countries +
                  publishing];
  }
  /// Percentage of `publishing`'s articles that report on `reported`
  /// (Table VII semantics).
  double Percent(CountryId reported, CountryId publishing) const noexcept {
    const std::uint64_t total = articles_per_publisher[publishing];
    return total == 0 ? 0.0
                      : 100.0 * static_cast<double>(At(reported, publishing)) /
                            static_cast<double>(total);
  }
};

/// Runs the aggregated query with the current OpenMP thread count.
CountryCrossReport CountryCrossReporting(const Database& db);

/// Countries ranked by located events (the Table VI row ordering).
std::vector<CountryId> CountriesByReportedEvents(const Database& db,
                                                 std::size_t k);

/// Countries ranked by published articles (the Table VI column ordering).
std::vector<CountryId> CountriesByPublishedArticles(const Database& db,
                                                    std::size_t k);

}  // namespace gdelt::engine
