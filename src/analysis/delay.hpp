// Publishing-delay analyses (paper Sections VI-E and VI-F).
//
// Delay = capture interval of an article minus the interval of the event
// it reports, in 15-minute units. 96 intervals = the 24-hour news cycle.
// Articles whose event time postdates the capture (the Table II defect)
// are excluded from the statistics.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/database.hpp"
#include "engine/queries.hpp"
#include "util/cancel.hpp"

namespace gdelt::analysis {

/// Per-source publishing delay summary (Fig 9 / Table VIII rows).
struct DelayStats {
  std::uint64_t article_count = 0;  ///< valid (non-negative-delay) articles
  std::int64_t min = 0;
  std::int64_t max = 0;
  double average = 0.0;
  std::int64_t median = 0;
};

/// Delay statistics for every source id. Sources with no valid articles
/// have article_count == 0. Parallel over sources via the source index;
/// each source is computed wholly within one morsel, so the float
/// average is bitwise identical at any morsel size and thread count.
std::vector<DelayStats> PerSourceDelayStats(
    const engine::Database& db, const util::CancelToken* cancel = nullptr);

/// Partial-aggregate kernel for scatter-gather serving: delay stats for
/// only the sources with `s % of == shard`; all other entries stay
/// zeroed. Each owned source is computed whole (sort + sequential sum
/// over its sorted delays), exactly like PerSourceDelayStats, so the
/// union of the strided results is bitwise identical to the full run.
std::vector<DelayStats> PerSourceDelayStatsStrided(
    const engine::Database& db, std::uint32_t shard, std::uint32_t of,
    const util::CancelToken* cancel = nullptr);

/// Histogram over sources of one delay metric, in power-of-two bins
/// [1,2), [2,4), ... plus bin 0 for exact zero. Used to print Fig 9.
enum class DelayMetric { kMin, kAverage, kMedian, kMax };
std::vector<std::uint64_t> DelayMetricHistogram(
    const std::vector<DelayStats>& stats, DelayMetric metric, int num_bins);

/// Per-quarter average and median delay over all articles (Fig 10).
struct QuarterlyDelay {
  QuarterId first_quarter = 0;
  std::vector<double> average;
  std::vector<std::int64_t> median;
};
QuarterlyDelay QuarterlyDelayStats(const engine::Database& db);

/// Partial-aggregate kernel for scatter-gather serving: quarterly delay
/// reduced for only the quarters with `q % of == shard`; other entries
/// stay zeroed. The full grouping pass (count, scatter, partition) is
/// replicated so each owned quarter sums its delays in exactly the order
/// QuarterlyDelayStats does — the merged averages are bitwise identical.
QuarterlyDelay QuarterlyDelayStatsStrided(const engine::Database& db,
                                          std::uint32_t shard,
                                          std::uint32_t of);

/// Articles per quarter with delay > 96 intervals / 24 h (Fig 11).
engine::QuarterSeries SlowArticlesPerQuarter(const engine::Database& db,
                                             std::int64_t threshold = 96);

}  // namespace gdelt::analysis
