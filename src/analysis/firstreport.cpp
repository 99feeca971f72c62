#include "analysis/firstreport.hpp"

#include <algorithm>
#include <bit>

#include "gtime/timestamp.hpp"
#include "parallel/morsel.hpp"

namespace gdelt::analysis {
namespace {

/// Per-worker partial accumulators (one matrix row per counter family).
struct FirstReportLocal {
  std::vector<std::uint64_t> first_reports;
  std::vector<std::uint64_t> hist;
  std::uint64_t within_hour = 0;
  std::vector<std::uint64_t> repeat_articles;

  void EnsureSized(std::size_t ns, std::size_t bins) {
    if (first_reports.size() == ns && hist.size() == bins) return;
    first_reports.assign(ns, 0);
    hist.assign(bins, 0);
    repeat_articles.assign(ns, 0);
  }
};

/// Accumulates first-report statistics for events [r.begin, r.end).
void FirstReportEventsRange(const engine::Database& db, IndexRange r,
                            FirstReportLocal& local) {
  const auto src = db.mention_source_id();
  const auto when = db.mention_interval();
  const auto event_when = db.mention_event_interval();
  const auto& by_event = db.mentions_by_event();
  const auto& index = db.event_distinct_sources();
  const std::size_t last_bin = local.hist.size() - 1;
  for (std::size_t e = r.begin; e < r.end; ++e) {
    const auto rows = by_event.RowsOf(static_cast<std::uint32_t>(e));
    if (rows.empty()) continue;
    // Rows are in capture order; find the earliest interval (ties ->
    // first row).
    std::uint32_t first_row = rows.front();
    std::int32_t first_when = when[first_row];
    for (const std::uint32_t row : rows) {
      const std::int32_t w = when[row];
      if (w < first_when) {
        first_when = w;
        first_row = row;
      }
    }
    ++local.first_reports[src[first_row]];
    const IntervalId delay = IntervalId{first_when} - event_when[first_row];
    if (delay >= 0) {
      // bit_width(d) is bin k = [2^(k-1), 2^k), and 0 for d = 0.
      const auto bin = static_cast<std::size_t>(
          std::bit_width(static_cast<std::uint64_t>(delay)));
      ++local.hist[std::min(bin, last_bin)];
      if (delay <= 4) ++local.within_hour;
    }
    // Repeat coverage: a source's articles beyond its first on the
    // event. Counting every row and then taking one back per distinct
    // source (the memoized index) leaves multiplicity - 1 per source.
    // Events with as many distinct sources as rows (the common case)
    // have no repeats and are skipped outright.
    const auto distinct = index.ValuesOf(static_cast<std::uint32_t>(e));
    if (distinct.size() < rows.size()) {
      for (const std::uint32_t row : rows) ++local.repeat_articles[src[row]];
      for (const std::uint32_t s : distinct) --local.repeat_articles[s];
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
