// Publishing-delay analyses (paper Sections VI-E and VI-F).
//
// Delay = capture interval of an article minus the interval of the event
// it reports, in 15-minute units. 96 intervals = the 24-hour news cycle.
// Articles whose event time postdates the capture (the Table II defect)
// are excluded from the statistics.
#pragma once

#include <cstdint>
#include <span>
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

/// Delay statistics of the given sources: result[k] belongs to
/// sources[k]; a source with no valid articles has article_count == 0.
/// Parallel over the listed sources on the morsel pool; each source is
/// computed whole within one morsel (sort + sequential sum over its
/// sorted delays), so any split of the list reproduces the same floats
/// bitwise at any morsel size and thread count.
std::vector<DelayStats> PerSourceDelayStats(
    const engine::Database& db, std::span<const std::uint32_t> sources,
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

/// Computes the quarters partition `shard` of `of` owns (relative
/// quarter q with q % of == shard); other entries stay zeroed. Every
/// owned quarter reduces its delays in the one order the grouping pass
/// fixes, so the union of the partitions is bitwise identical to the
/// whole run (shard 0 of 1). Runs on the morsel pool, which polls
/// `cancel`; a cancelled result is partial and must be discarded.
QuarterlyDelay QuarterlyDelayStats(const engine::Database& db,
                                   std::uint32_t shard = 0,
                                   std::uint32_t of = 1,
                                   const util::CancelToken* cancel = nullptr);

/// Articles per quarter with delay > 96 intervals / 24 h (Fig 11).
engine::QuarterSeries SlowArticlesPerQuarter(const engine::Database& db,
                                             std::int64_t threshold = 96);

}  // namespace gdelt::analysis
