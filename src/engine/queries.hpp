// Aggregated query kernels over the in-memory database.
//
// These are the "most intensive aggregated queries" the paper parallelizes
// with OpenMP (Sections IV, VI-G); here each is a single scan on the
// morsel pool with per-slot partials merged deterministically at the
// end. The kernels of the query kinds take the partition they cover (an
// event or mention-row range, kWholeRange by default, or the quarters a
// partition owns), so a single node runs partition 0 of 1 of the same
// code a shard runs (serve/partial.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <span>
#include <vector>

#include "engine/database.hpp"
#include "gtime/timestamp.hpp"
#include "parallel/morsel.hpp"
#include "parallel/parallel.hpp"
#include "util/cancel.hpp"

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

/// The calendar quarters a database's mentions span, with the first
/// capture interval of each: mapping an interval to its quarter is a
/// search over count + 1 boundaries, not a civil-date conversion.
struct QuarterWindow {
  QuarterId first = 0;
  std::int32_t count = 0;
  /// bounds[q] = QuarterStartInterval(first + q) for q in [0, count];
  /// empty when count == 0.
  std::vector<IntervalId> bounds;

  /// Index of the quarter holding `iv`, relative to `first` (that is,
  /// QuarterOfUnixSeconds(IntervalStartUnixSeconds(iv)) - first), or none
  /// when `iv` lies outside the window. Monotone in `iv`.
  std::optional<std::size_t> Of(IntervalId iv) const noexcept {
    if (bounds.empty() || iv < bounds.front() || iv >= bounds.back()) {
      return std::nullopt;
    }
    // The last bound <= iv, by a branch-free halving search.
    std::size_t at = 0;
    for (std::size_t n = bounds.size(); n > 1;) {
      const std::size_t half = n / 2;
      at = bounds[at + half] <= iv ? at + half : at;
      n -= half;
    }
    return at;
  }
};

/// The quarters from the one holding `first_interval` to the one holding
/// `last_interval` (first_interval <= last_interval).
QuarterWindow QuartersOf(IntervalId first_interval, IntervalId last_interval);

/// The quarters the database's mention intervals span; count 0 for a
/// database without mentions.
QuarterWindow QuartersOf(const Database& db);

/// Splits the mention rows of `rows` into runs of consecutive rows whose
/// intervals lie in one quarter of `w`, and calls run(IndexRange, q) for
/// each run in row order, q relative to w.first; rows outside `w` are
/// skipped. A zone block whose smallest and largest interval fall in one
/// quarter is one run, and its rows are not read; the rows of any other
/// block are looked up one by one. Exact for any row order, since the
/// lookup is monotone; fast for the capture order the converter writes,
/// where only the blocks at a quarter's edge straddle two quarters.
template <typename Run>
void ForEachQuarterRun(const Database& db, const QuarterWindow& w,
                       IndexRange rows, Run&& run) {
  rows = ClampRange(rows, db.num_mentions());
  const auto when = db.mention_interval();
  const auto zone_min = db.zone_min_interval();
  const auto zone_max = db.zone_max_interval();
  for (std::size_t begin = rows.begin; begin < rows.end;) {
    const std::size_t zone = begin / Database::kZoneRows;
    const std::size_t end =
        std::min(rows.end, (zone + 1) * Database::kZoneRows);
    const auto q = w.Of(zone_min[zone]);
    if (q && q == w.Of(zone_max[zone])) {
      run(IndexRange{begin, end}, *q);
    } else {
      std::size_t start = begin;
      std::optional<std::size_t> at = w.Of(when[begin]);
      for (std::size_t i = begin + 1; i < end; ++i) {
        const auto qi = w.Of(when[i]);
        if (qi == at) continue;
        if (at) run(IndexRange{start, i}, *at);
        start = i;
        at = qi;
      }
      if (at) run(IndexRange{start, end}, *at);
    }
    begin = end;
  }
}

/// ForEachQuarterRun over `rows` split into pool morsels: calls
/// body(run, q, slot), `slot` as in parallel::PoolParallelFor.
template <typename Body>
void PoolQuarterRuns(const Database& db, const QuarterWindow& w,
                     IndexRange rows, Body&& body) {
  rows = ClampRange(rows, db.num_mentions());
  parallel::PoolParallelFor(rows.size(), [&](IndexRange r, std::size_t slot) {
    ForEachQuarterRun(db, w, {rows.begin + r.begin, rows.begin + r.end},
                      [&](IndexRange run, std::size_t q) {
                        body(run, q, slot);
                      });
  });
}

/// Per-quarter totals of count(run) over the quarter runs of `rows`.
/// Per-slot partials merge in slot order, so the totals are the same at
/// any pool and morsel size.
template <typename Count>
std::vector<std::uint64_t> QuarterRunHistogram(const Database& db,
                                               const QuarterWindow& w,
                                               IndexRange rows,
                                               Count&& count) {
  const auto nq = static_cast<std::size_t>(w.count);
  std::vector<std::vector<std::uint64_t>> partials(parallel::PoolSlots());
  PoolQuarterRuns(db, w, rows,
                  [&](IndexRange run, std::size_t q, std::size_t slot) {
                    auto& local = partials[slot];
                    if (local.size() != nq) local.assign(nq, 0);
                    local[q] += count(run);
                  });
  std::vector<std::uint64_t> totals(nq, 0);
  parallel::MergeSlotPartials(std::span<std::uint64_t>(totals), partials);
  return totals;
}

/// The runs of quarter `q` of `w` (ForEachQuarterRun over the zone blocks
/// that overlap it), in row order.
template <typename Run>
void ForEachRunInQuarter(const Database& db, const QuarterWindow& w,
                         std::size_t q, Run&& run) {
  const auto zone_min = db.zone_min_interval();
  const auto zone_max = db.zone_max_interval();
  for (std::size_t z = 0; z < zone_min.size(); ++z) {
    if (zone_max[z] < w.bounds[q] || zone_min[z] >= w.bounds[q + 1]) {
      continue;
    }
    const std::size_t row0 = z * Database::kZoneRows;
    ForEachQuarterRun(db, w, {row0, row0 + Database::kZoneRows},
                      [&](IndexRange r, std::size_t run_q) {
                        if (run_q == q) run(r);
                      });
  }
}

/// Events of `events` observed per quarter, by DATEADDED (Fig 4).
QuarterSeries EventsPerQuarter(const Database& db,
                               IndexRange events = kWholeRange,
                               const util::CancelToken* cancel = nullptr);

/// Active sources (Fig 3) and articles (Fig 5) of the quarters partition
/// `shard` of `of` owns (q % of == shard), each counted whole from its
/// runs; the other quarters stay 0.
struct QuarterActivity {
  QuarterId first_quarter = 0;
  std::vector<std::uint64_t> active_sources;
  std::vector<std::uint64_t> articles;
};
QuarterActivity QuarterlyActivity(const Database& db, std::uint32_t shard = 0,
                                  std::uint32_t of = 1,
                                  const util::CancelToken* cancel = nullptr);

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
