// First-reporter and repeat-coverage analysis — the follow-up research the
// paper sketches at the end of Section VI-E:
//
//   "Observed delay for the very first article from any source on a
//    particular topic might be relevant to reporting speediness and
//    potential news wildfires. Repeated articles on an event by a single
//    source might very well be an indicator of thorough and responsible
//    reporting. However, it could also be an indication of intentional
//    spreading of misinformation."
//
// This module measures both signals: per-source first-reporter counts
// (who breaks stories), the distribution of first-article delays over
// events (how fast the fastest coverage is), and per-source repeat-
// coverage rates (who re-publishes on the same event).
#pragma once

#include <cstdint>
#include <vector>

#include "engine/database.hpp"
#include "parallel/parallel.hpp"
#include "util/cancel.hpp"

namespace gdelt::analysis {

struct FirstReportStats {
  /// Events where source s published the earliest article (ties broken by
  /// capture order, as GDELT itself would).
  std::vector<std::uint64_t> first_reports;      ///< per source id
  /// Histogram over events of the first article's delay, power-of-two
  /// bins as in DelayMetricHistogram (bin 0 = delay 0, bin k = [2^(k-1),2^k)).
  std::vector<std::uint64_t> first_delay_histogram;
  /// Events whose first article arrived within 1 hour (4 intervals) —
  /// wildfire-relevant immediacy.
  std::uint64_t events_broken_within_hour = 0;

  /// Per source: number of (event, source) pairs with >= 2 articles.
  std::vector<std::uint64_t> repeat_events;      ///< per source id
  /// Per source: articles beyond the first per covered event.
  std::vector<std::uint64_t> repeat_articles;    ///< per source id

  /// Repeat-coverage rate of a source: repeat articles / total articles.
  double RepeatRate(std::uint32_t source,
                    std::uint64_t total_articles) const noexcept {
    return total_articles == 0
               ? 0.0
               : static_cast<double>(repeat_articles[source]) /
                     static_cast<double>(total_articles);
  }
};

/// Computes all first-reporter statistics in one pass over the events in
/// `events`. Events whose first delay is negative (the Table II defect)
/// are excluded from the delay histogram but still count for
/// first-reports. Every counter is an integer sum over disjoint per-event
/// contributions, so summing the stats of a partition of the event axis
/// reproduces the whole-range stats exactly; partials merge in
/// scratch-slot order — bitwise identical at any morsel size and thread
/// count.
FirstReportStats ComputeFirstReports(
    const engine::Database& db, IndexRange events = kWholeRange,
    int histogram_bins = 18, const util::CancelToken* cancel = nullptr);

}  // namespace gdelt::analysis
