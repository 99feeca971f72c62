#include "analysis/firstreport.hpp"

#include <algorithm>
#include <cmath>

#include "gtime/timestamp.hpp"
#include "parallel/morsel.hpp"

namespace gdelt::analysis {
namespace {

/// Per-worker partial accumulators (one matrix row per counter family).
struct FirstReportLocal {
  std::vector<std::uint64_t> first_reports;
  std::vector<std::uint64_t> hist;
  std::uint64_t within_hour = 0;
  std::vector<std::uint64_t> repeat_events;
  std::vector<std::uint64_t> repeat_articles;
  std::vector<std::uint32_t> multiplicity;  // scratch

  void EnsureSized(std::size_t ns, std::size_t bins) {
    if (first_reports.size() == ns && hist.size() == bins) return;
    first_reports.assign(ns, 0);
    hist.assign(bins, 0);
    repeat_events.assign(ns, 0);
    repeat_articles.assign(ns, 0);
  }
};

/// Accumulates first-report statistics for events [r.begin, r.end).
void FirstReportEventsRange(const engine::Database& db, IndexRange r,
                            FirstReportLocal& local) {
  const auto src = db.mention_source_id();
  const auto when = db.mention_interval();
  const auto event_when = db.mention_event_interval();
  const auto& index = db.event_distinct_sources();
  for (std::size_t e = r.begin; e < r.end; ++e) {
    const auto rows =
        db.mentions_by_event().RowsOf(static_cast<std::uint32_t>(e));
    if (rows.empty()) continue;
    // Rows are in capture order; find the earliest interval (ties ->
    // first row).
    std::uint64_t first_row = rows.front();
    for (const std::uint64_t row : rows) {
      if (when[row] < when[first_row]) first_row = row;
    }
    ++local.first_reports[src[first_row]];
    const IntervalId delay =
        IntervalId{when[first_row]} - event_when[first_row];
    if (delay >= 0) {
      std::size_t bin = 0;
      if (delay >= 1) {
        bin = 1 +
              static_cast<std::size_t>(std::log2(static_cast<double>(delay)));
      }
      bin = std::min(bin, local.hist.size() - 1);
      ++local.hist[bin];
      if (delay <= 4) ++local.within_hour;
    }
    // Repeat coverage: multiplicity per source within this event. The
    // memoized index holds the event's distinct sources sorted, so
    // instead of re-sorting the mention rows we bucket each row against
    // that list; events with as many distinct sources as rows (the
    // common case) have no repeats and are skipped outright.
    const auto distinct = index.ValuesOf(static_cast<std::uint32_t>(e));
    if (distinct.size() < rows.size()) {
      local.multiplicity.assign(distinct.size(), 0);
      for (const std::uint64_t row : rows) {
        const auto at =
            std::lower_bound(distinct.begin(), distinct.end(), src[row]) -
            distinct.begin();
        ++local.multiplicity[static_cast<std::size_t>(at)];
      }
      for (std::size_t d = 0; d < distinct.size(); ++d) {
        if (local.multiplicity[d] >= 2) {
          ++local.repeat_events[distinct[d]];
          local.repeat_articles[distinct[d]] += local.multiplicity[d] - 1;
        }
      }
    }
  }
}

}  // namespace

FirstReportStats ComputeFirstReports(const engine::Database& db,
                                     IndexRange events, int histogram_bins,
                                     const util::CancelToken* cancel) {
  const std::size_t ns = db.num_sources();
  const auto bins = static_cast<std::size_t>(histogram_bins);
  FirstReportStats stats;
  stats.first_reports.assign(ns, 0);
  stats.first_delay_histogram.assign(bins, 0);
  stats.repeat_events.assign(ns, 0);
  stats.repeat_articles.assign(ns, 0);

  events = ClampRange(events, db.num_events());
  std::vector<FirstReportLocal> locals(parallel::PoolSlots());
  parallel::PoolParallelFor(
      events.size(),
      [&](IndexRange r, std::size_t slot) {
        auto& local = locals[slot];
        local.EnsureSized(ns, bins);
        FirstReportEventsRange(
            db, {events.begin + r.begin, events.begin + r.end}, local);
      },
      /*morsel_rows=*/0, cancel);

  // Slot-ordered merge (integer sums, so the result is independent of
  // which worker ran which morsel).
  for (const FirstReportLocal& local : locals) {
    if (local.first_reports.size() != ns || local.hist.size() != bins) {
      continue;  // slot never ran a morsel
    }
    for (std::size_t s = 0; s < ns; ++s) {
      stats.first_reports[s] += local.first_reports[s];
      stats.repeat_events[s] += local.repeat_events[s];
      stats.repeat_articles[s] += local.repeat_articles[s];
    }
    for (std::size_t b = 0; b < bins; ++b) {
      stats.first_delay_histogram[b] += local.hist[b];
    }
    stats.events_broken_within_hour += local.within_hour;
  }
  return stats;
}

}  // namespace gdelt::analysis
