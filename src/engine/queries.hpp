// Aggregated query kernels over the in-memory database.
//
// These are the "most intensive aggregated queries" the paper parallelizes
// with OpenMP (Sections IV, VI-G); here each is a single scan on the
// morsel pool with per-slot partials merged deterministically at the
// end. The kernels of the decomposable query kinds take the partition
// they cover (an event or mention-row range, kWholeRange by default), so
// a single node runs partition 0 of 1 of the same code a shard runs
// (serve/partial.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "engine/database.hpp"
#include "gtime/timestamp.hpp"
#include "parallel/parallel.hpp"

namespace gdelt::engine {

/// Article count per source id (Fig 6 input): the whole-table totals
/// Database::Load computed, valid as long as `db`.
std::span<const std::uint64_t> ArticlesPerSource(const Database& db);

/// Every source id, ascending.
std::vector<std::uint32_t> AllSources(const Database& db);

/// The k ids with the largest counts, descending (ties by id).
template <typename Id>
std::vector<Id> RankByCount(std::span<const std::uint64_t> counts,
                            std::size_t k) {
  std::vector<Id> ids(counts.size());
  std::iota(ids.begin(), ids.end(), Id{0});
  const std::size_t take = std::min(k, ids.size());
  std::partial_sort(ids.begin(),
                    ids.begin() + static_cast<std::ptrdiff_t>(take), ids.end(),
                    [&](Id a, Id b) {
                      if (counts[a] != counts[b]) return counts[a] > counts[b];
                      return a < b;
                    });
  ids.resize(take);
  return ids;
}

/// Source ids with the most articles, descending (ties by id).
std::vector<std::uint32_t> TopSourcesByArticles(const Database& db,
                                                std::size_t k);

/// One row of the Table III result.
struct TopEvent {
  std::uint32_t event_row = 0;
  std::uint32_t articles = 0;
};

/// Selects the k best of a stream of events (anything with `articles`
/// and `event_row`) in Table III order: more articles first, ties by the
/// lower event row. Holds at most k events, as a heap whose front is the
/// worst one kept. Every event row belongs to one partition, so the top k
/// of the union of per-partition top-k lists is the global top k.
template <typename Event>
class TopEventsSelector {
 public:
  explicit TopEventsSelector(std::size_t k) : k_(k) {}

  void Offer(const Event& ev) {
    if (full_) {
      // Most events lose to the worst kept one: one compare, no writes.
      if (!RanksBefore(ev, heap_.front())) return;
      std::pop_heap(heap_.begin(), heap_.end(), RanksBefore);
      heap_.back() = ev;
    } else {
      if (k_ == 0) return;
      heap_.push_back(ev);
      full_ = heap_.size() == k_;
    }
    std::push_heap(heap_.begin(), heap_.end(), RanksBefore);
  }

  /// The selected events, best first.
  std::vector<Event> Take() && {
    std::sort_heap(heap_.begin(), heap_.end(), RanksBefore);
    return std::move(heap_);
  }

 private:
  static bool RanksBefore(const Event& a, const Event& b) {
    if (a.articles != b.articles) return a.articles > b.articles;
    return a.event_row < b.event_row;
  }

  std::size_t k_;
  bool full_ = false;
  std::vector<Event> heap_;
};

/// Event rows of `events` with the most articles, in Table III order.
std::vector<TopEvent> TopReportedEvents(const Database& db, std::size_t k,
                                        IndexRange events = kWholeRange);

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

  /// Builds a report from the cross-reporting histogram layout: the
  /// num_countries^2 count matrix, then per publishing country the
  /// articles on orphan or unlocated events. A publisher's total is that
  /// count plus the located cells of its column.
  static CountryCrossReport FromBins(std::size_t num_countries,
                                     std::vector<std::uint64_t> bins);
};

// CountryCrossReporting, the kernel of this report, takes a mention
// range and an optional selection bitmap: engine/filter.hpp.

/// Countries ranked by located events (the Table VI row ordering).
std::vector<CountryId> CountriesByReportedEvents(const Database& db,
                                                 std::size_t k);

/// Countries ranked by published articles (the Table VI column ordering).
std::vector<CountryId> CountriesByPublishedArticles(const Database& db,
                                                    std::size_t k);

}  // namespace gdelt::engine
