// User-defined query restriction: predicate filters over the mentions
// table, materialized as row sets that the aggregate kernels accept.
//
// The paper's engine processes "user-defined queries ... optimized for
// in-memory handling" (Section IV). The headline tables are full-table
// aggregates, but real use restricts by time window (one quarter, one
// week of a crisis), by GDELT's extraction confidence, or by
// publisher/event country. A MentionFilter captures those predicates; the
// filtered kernel overloads then aggregate only the selected rows.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "engine/database.hpp"
#include "engine/queries.hpp"
#include "util/cancel.hpp"

namespace gdelt::engine {

/// Conjunctive predicates over mention rows. Default-constructed = all.
struct MentionFilter {
  /// Capture-interval window [begin, end).
  std::int64_t begin_interval = INT64_MIN;
  std::int64_t end_interval = INT64_MAX;
  /// Minimum GDELT extraction confidence (0 = any).
  std::uint8_t min_confidence = 0;
  /// Restrict to articles from this country's press (kNoCountry = any).
  CountryId publisher_country = kNoCountry;
  /// Restrict to events located in this country (kNoCountry = any).
  CountryId event_country = kNoCountry;
  /// Drop mentions whose event row is unknown (lost archives).
  bool exclude_orphans = false;

  /// True if every mention passes (the no-op filter).
  bool IsAll() const noexcept {
    return begin_interval == INT64_MIN && end_interval == INT64_MAX &&
           min_confidence == 0 && publisher_country == kNoCountry &&
           event_country == kNoCountry && !exclude_orphans;
  }
};

/// Dense selection over the mentions table: bit i set = row i selected.
/// Produced column-at-a-time by the vectorized filter passes and
/// consumed directly by the bitmap aggregate overloads below, so a
/// filter→aggregate chain never re-touches non-matching rows.
struct SelectionBitmap {
  std::size_t num_rows = 0;
  /// ceil(num_rows / 64) little-endian words; tail bits are clear.
  std::vector<std::uint64_t> words;
  /// Every word outside [begin_word, end_word) is zero, so consumers walk
  /// only this span. Zone-map pruning leaves a time window the span of
  /// the blocks that overlap it.
  std::size_t begin_word = 0;
  std::size_t end_word = 0;

  /// The word span in rows: [begin_word * 64, min(num_rows, end_word * 64)).
  IndexRange RowSpan() const noexcept {
    return {begin_word * 64, std::min(num_rows, end_word * 64)};
  }

  bool Test(std::uint64_t i) const noexcept {
    return (words[i >> 6] >> (i & 63)) & 1u;
  }
  /// Number of selected rows (popcount over the words).
  std::uint64_t CountSet() const noexcept;
  /// Materializes the selected row ids, ascending.
  std::vector<std::uint64_t> ToRows() const;
};

/// Column-at-a-time vectorized selection: AVX2 compare kernels for the
/// interval-window and min-confidence columns, zero-word-skipping scalar
/// passes for the gather-dependent country/orphan predicates. Runs on
/// the shared morsel pool. The database's zone map prunes the window
/// first: blocks whose interval range misses it are never read, blocks
/// inside it skip the interval compare.
SelectionBitmap SelectMentionsBitmap(const Database& db,
                                     const MentionFilter& filter);

/// Mention rows matching the filter, ascending
/// (= SelectMentionsBitmap(...).ToRows()).
std::vector<std::uint64_t> SelectMentions(const Database& db,
                                          const MentionFilter& filter);

/// Runtime SIMD toggle. Defaults to CPU detection, and
/// GDELT_DISABLE_SIMD=1 pins it off for the whole process; benches and
/// tests flip it per measurement to compare code paths in one run.
/// Enabling is a no-op on hosts without AVX2.
void SetSimdEnabled(bool enabled) noexcept;
bool SimdEnabled() noexcept;

/// Articles per quarter over a row subset.
QuarterSeries ArticlesPerQuarter(const Database& db,
                                 std::span<const std::uint64_t> rows);

/// Distinct events touched by a row subset.
std::uint64_t DistinctEvents(const Database& db,
                             std::span<const std::uint64_t> rows);

// The mention-range kernels: each aggregates the rows of `mentions`, or
// with a non-null `sel` only the rows it selects there, without
// materializing them. Both run on the morsel pool's histogram, which
// polls `cancel` per morsel.
// Summing the results over a partition of the mention rows reproduces
// the whole-range result exactly.

/// Article count per source id (Fig 6 input). The whole table with no
/// selection returns the load-time totals instead of scanning.
std::vector<std::uint64_t> ArticlesPerSource(
    const Database& db, IndexRange mentions, const SelectionBitmap* sel,
    const util::CancelToken* cancel = nullptr);

/// Country cross-reporting (Tables VI/VII, Fig 8), the paper's headline
/// aggregated query, in one scan.
CountryCrossReport CountryCrossReporting(
    const Database& db, IndexRange mentions = kWholeRange,
    const SelectionBitmap* sel = nullptr,
    const util::CancelToken* cancel = nullptr);

QuarterSeries ArticlesPerQuarter(const Database& db,
                                 const SelectionBitmap& sel);
std::uint64_t DistinctEvents(const Database& db, const SelectionBitmap& sel);

}  // namespace gdelt::engine
