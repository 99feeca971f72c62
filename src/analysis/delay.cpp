#include "analysis/delay.hpp"

#include <algorithm>
#include <cmath>

#include "parallel/morsel.hpp"
#include "trace/trace.hpp"

namespace gdelt::analysis {
namespace {

/// True median of a non-empty range (partially reorders it). Odd counts
/// return the middle element; even counts return the mean of the two middle
/// elements, floored to stay integral. A bare nth_element at n/2 would give
/// the *upper* median for even counts, which overstates the typical delay.
std::int64_t MedianInPlace(std::int64_t* begin, std::int64_t* end) {
  const auto n = static_cast<std::size_t>(end - begin);
  std::nth_element(begin, begin + n / 2, end);
  const std::int64_t upper = begin[n / 2];
  if (n % 2 != 0) return upper;
  const std::int64_t lower = *std::max_element(begin, begin + n / 2);
  return lower + (upper - lower) / 2;
}

}  // namespace

namespace {

/// Stats for one source; `delays` is reusable scratch. One scan takes
/// the count, extremes and exact integer sum; the median needs only a
/// selection, not a sort.
void OneSourceDelayStats(const engine::Database& db,
                         std::span<const std::int32_t> when,
                         std::span<const std::int32_t> event_when,
                         std::uint32_t s, std::vector<std::int64_t>& delays,
                         DelayStats& st) {
  delays.clear();
  std::uint64_t sum = 0;
  std::int64_t lo = INT64_MAX;
  std::int64_t hi = 0;
  for (const std::uint64_t row : db.mentions_by_source().RowsOf(s)) {
    const IntervalId d = IntervalId{when[row]} - event_when[row];
    if (d < 0) continue;
    delays.push_back(d);
    sum += static_cast<std::uint64_t>(d);
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  st.article_count = delays.size();
  if (delays.empty()) return;
  st.min = lo;
  st.max = hi;
  st.median = MedianInPlace(delays.data(), delays.data() + delays.size());
  st.average = static_cast<double>(sum) / static_cast<double>(delays.size());
}

}  // namespace

std::vector<DelayStats> PerSourceDelayStats(
    const engine::Database& db, std::span<const std::uint32_t> sources,
    const util::CancelToken* cancel) {
  TRACE_SPAN("delay.per_source");
  const auto when = db.mention_interval();
  const auto event_when = db.mention_event_interval();
  std::vector<DelayStats> stats(sources.size());
  if (sources.empty()) return stats;

  // Per-source work is skewed (article counts follow a power law, and the
  // usual caller asks for the top sources), so every source is its own
  // morsel and the pool's stealing does the balancing.
  std::vector<std::vector<std::int64_t>> scratch(parallel::PoolSlots());
  parallel::PoolParallelFor(
      sources.size(),
      [&](IndexRange r, std::size_t slot) {
        for (std::size_t k = r.begin; k < r.end; ++k) {
          OneSourceDelayStats(db, when, event_when, sources[k], scratch[slot],
                              stats[k]);
        }
      },
      /*morsel_rows=*/1, cancel);
  return stats;
}

std::vector<std::uint64_t> DelayMetricHistogram(
    const std::vector<DelayStats>& stats, DelayMetric metric, int num_bins) {
  std::vector<std::uint64_t> bins(static_cast<std::size_t>(num_bins), 0);
  for (const DelayStats& st : stats) {
    if (st.article_count == 0) continue;
    double value = 0.0;
    switch (metric) {
      case DelayMetric::kMin: value = static_cast<double>(st.min); break;
      case DelayMetric::kAverage: value = st.average; break;
      case DelayMetric::kMedian: value = static_cast<double>(st.median); break;
      case DelayMetric::kMax: value = static_cast<double>(st.max); break;
    }
    std::size_t bin = 0;
    if (value >= 1.0) {
      bin = 1 + static_cast<std::size_t>(std::log2(value));
    }
    bin = std::min(bin, bins.size() - 1);
    ++bins[bin];
  }
  return bins;
}

QuarterlyDelay QuarterlyDelayStats(const engine::Database& db,
                                   std::uint32_t shard, std::uint32_t of,
                                   const util::CancelToken* cancel) {
  TRACE_SPAN("delay.quarterly");
  const auto w = engine::QuartersOf(db);
  const auto when = db.mention_interval();
  const auto event_when = db.mention_event_interval();
  const auto nq = static_cast<std::size_t>(w.count);

  QuarterlyDelay result;
  result.first_quarter = w.first;
  result.average.assign(nq, 0.0);
  result.median.assign(nq, 0);

  // Each owned quarter gathers its non-negative delays from its own runs.
  // The sum is an exact integer and the median depends on the values
  // alone, so neither depends on the order the rows are gathered in.
  std::vector<std::vector<std::int64_t>> scratch(parallel::PoolSlots());
  parallel::PoolParallelFor(
      nq,
      [&](IndexRange r, std::size_t slot) {
        auto& delays = scratch[slot];
        for (std::size_t q = r.begin; q < r.end; ++q) {
          if (q % of != shard) continue;
          delays.clear();
          std::uint64_t sum = 0;
          engine::ForEachRunInQuarter(db, w, q, [&](IndexRange run) {
            for (std::size_t i = run.begin; i < run.end; ++i) {
              const IntervalId d = IntervalId{when[i]} - event_when[i];
              if (d < 0) continue;  // the Table II defect
              delays.push_back(d);
              sum += static_cast<std::uint64_t>(d);
            }
          });
          if (delays.empty()) continue;
          result.average[q] =
              static_cast<double>(sum) / static_cast<double>(delays.size());
          result.median[q] =
              MedianInPlace(delays.data(), delays.data() + delays.size());
        }
      },
      /*morsel_rows=*/1, cancel);
  return result;
}

engine::QuarterSeries SlowArticlesPerQuarter(const engine::Database& db,
                                             std::int64_t threshold) {
  TRACE_SPAN("delay.slow_articles");
  const auto w = engine::QuartersOf(db);
  const auto when = db.mention_interval();
  const auto event_when = db.mention_event_interval();
  engine::QuarterSeries series;
  series.first_quarter = w.first;
  series.values = engine::QuarterRunHistogram(
      db, w, kWholeRange, [&](IndexRange run) {
        std::uint64_t slow = 0;
        for (std::size_t i = run.begin; i < run.end; ++i) {
          slow += IntervalId{when[i]} - event_when[i] > threshold;
        }
        return slow;
      });
  return series;
}

}  // namespace gdelt::analysis
