// Reproduces Figure 9: histograms over sources of the minimum, average,
// median and maximum publication delay (in 15-minute intervals).
//
// Paper shape: ~half the sources have minimum delay of one interval; most
// averages fall at 2-8 hours with a slow tail months out; medians peak at
// 4-5 hours with rapid decay toward the 24 h mark; maxima cluster at the
// 24 h news cycle (96) with clear groups at a week, a month and a year.
#include "analysis/delay.hpp"
#include "common/fixture.hpp"
#include "util/strings.hpp"

namespace gdelt::bench {
namespace {

constexpr int kBins = 18;  // log2 bins up to ~1.5 years

void BM_PerSourceDelayStats(benchmark::State& state) {
  const auto& db = Db();
  for (auto _ : state) {
    auto stats = analysis::PerSourceDelayStats(db, engine::AllSources(db));
    benchmark::DoNotOptimize(stats);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(db.num_mentions()) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PerSourceDelayStats);

void PrintHist(const char* name,
               const std::vector<std::uint64_t>& hist) {
  std::printf("  %s delay histogram (bin = [2^(k-1), 2^k) intervals):\n",
              name);
  for (std::size_t k = 0; k < hist.size(); ++k) {
    if (hist[k] == 0) continue;
    const std::uint64_t lo = k == 0 ? 0 : 1ull << (k - 1);
    std::printf("    >=%7llu  %s\n", static_cast<unsigned long long>(lo),
                WithThousands(hist[k]).c_str());
  }
}

void Print() {
  const auto& db = Db();
  const auto stats = analysis::PerSourceDelayStats(db, engine::AllSources(db));
  std::printf("\n=== Figure 9: per-source delay distributions ===\n");
  PrintHist("minimum",
            analysis::DelayMetricHistogram(stats, analysis::DelayMetric::kMin,
                                           kBins));
  PrintHist("average",
            analysis::DelayMetricHistogram(
                stats, analysis::DelayMetric::kAverage, kBins));
  PrintHist("median",
            analysis::DelayMetricHistogram(
                stats, analysis::DelayMetric::kMedian, kBins));
  PrintHist("maximum",
            analysis::DelayMetricHistogram(stats, analysis::DelayMetric::kMax,
                                           kBins));
  // Headline fractions the paper quotes.
  std::uint64_t min_one = 0, active = 0, max_day = 0, max_year = 0;
  for (const auto& st : stats) {
    if (st.article_count == 0) continue;
    ++active;
    if (st.min <= 1) ++min_one;
    if (st.max <= 192) ++max_day;  // max within ~the 24 h news cycle
    if (st.max >= 20000) ++max_year;
  }
  std::printf("  sources reporting something within 15 min: %.0f%% "
              "(paper: ~half)\n",
              active ? 100.0 * static_cast<double>(min_one) /
                           static_cast<double>(active)
                     : 0.0);
  std::printf("  sources whose max delay ~ 24h cycle: %.0f%%; with year-old "
              "articles: %.0f%% (paper: majority at 24h; clear week/month/"
              "year outlier groups)\n",
              active ? 100.0 * static_cast<double>(max_day) /
                           static_cast<double>(active)
                     : 0.0,
              active ? 100.0 * static_cast<double>(max_year) /
                           static_cast<double>(active)
                     : 0.0);
}

}  // namespace
}  // namespace gdelt::bench

GDELT_BENCH_MAIN(gdelt::bench::Print)
