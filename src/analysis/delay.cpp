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

/// Stats for one source; `delays` is reusable scratch.
void OneSourceDelayStats(const engine::Database& db,
                         std::span<const std::int64_t> when,
                         std::span<const std::int64_t> event_when,
                         std::uint32_t s, std::vector<std::int64_t>& delays,
                         DelayStats& st) {
  delays.clear();
  for (const std::uint64_t row : db.mentions_by_source().RowsOf(s)) {
    const std::int64_t d = when[row] - event_when[row];
    if (d >= 0) delays.push_back(d);
  }
  st.article_count = delays.size();
  if (delays.empty()) return;
  std::sort(delays.begin(), delays.end());
  st.min = delays.front();
  st.max = delays.back();
  st.median = MedianInPlace(delays.data(), delays.data() + delays.size());
  double sum = 0.0;
  for (const std::int64_t d : delays) sum += static_cast<double>(d);
  st.average = sum / static_cast<double>(delays.size());
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
  db.mentions_by_source();  // force the memoized index outside the region

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
  const auto quarters = engine::MentionQuarters(db);
  const auto when = db.mention_interval();
  const auto event_when = db.mention_event_interval();
  const auto nq = static_cast<std::size_t>(w.count);

  QuarterlyDelay result;
  result.first_quarter = w.first;
  result.average.assign(nq, 0.0);
  result.median.assign(nq, 0);
  if (nq <= shard) return result;

  // Group delays by quarter (serial scatter after a parallel count): the
  // scatter fixes each quarter's delay order, hence its float sum. Then
  // reduce each owned quarter independently in parallel.
  std::vector<std::uint64_t> counts = parallel::PoolHistogram(
      {0, quarters.size()}, nq,
      [&](std::size_t i) { return static_cast<std::size_t>(quarters[i]); },
      nullptr, cancel);
  if (util::Cancelled(cancel)) return result;  // the counts are partial
  std::vector<std::uint64_t> offsets(nq + 1, 0);
  for (std::size_t q = 0; q < nq; ++q) offsets[q + 1] = offsets[q] + counts[q];
  std::vector<std::int64_t> delays(quarters.size());
  std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (std::size_t i = 0; i < quarters.size(); ++i) {
    const auto q = static_cast<std::size_t>(quarters[i]);
    delays[cursor[q]++] = when[i] - event_when[i];
  }

  // Every owned quarter is its own morsel: quarter sizes are skewed, and
  // the pool's stealing does the balancing.
  const std::size_t owned = (nq - shard + of - 1) / of;
  parallel::PoolParallelFor(
      owned,
      [&](IndexRange r, std::size_t) {
        for (std::size_t k = r.begin; k < r.end; ++k) {
          const std::size_t q = shard + k * of;
          auto* begin = delays.data() + offsets[q];
          auto* end = delays.data() + offsets[q + 1];
          // Exclude negative (defective) delays.
          end = std::partition(begin, end,
                               [](std::int64_t d) { return d >= 0; });
          const auto n = static_cast<std::size_t>(end - begin);
          if (n == 0) continue;
          double sum = 0.0;
          for (auto* p = begin; p != end; ++p) sum += static_cast<double>(*p);
          result.average[q] = sum / static_cast<double>(n);
          result.median[q] = MedianInPlace(begin, end);
        }
      },
      /*morsel_rows=*/1, cancel);
  return result;
}

engine::QuarterSeries SlowArticlesPerQuarter(const engine::Database& db,
                                             std::int64_t threshold) {
  TRACE_SPAN("delay.slow_articles");
  const auto w = engine::QuartersOf(db);
  const auto quarters = engine::MentionQuarters(db);
  const auto when = db.mention_interval();
  const auto event_when = db.mention_event_interval();
  engine::QuarterSeries series;
  series.first_quarter = w.first;
  series.values = parallel::PoolHistogram(
      {0, quarters.size()}, static_cast<std::size_t>(w.count),
      [&](std::size_t i) -> std::size_t {
        const std::int64_t d = when[i] - event_when[i];
        if (d <= threshold) return SIZE_MAX;
        return static_cast<std::size_t>(quarters[i]);
      });
  return series;
}

}  // namespace gdelt::analysis
