// Reproduces Figure 2: number of events with a given number of articles.
//
// Paper shape: a power law over ~3.5 decades with a slight deviation from
// the pure line around the middle of the range (unlike Lu et al., all
// sources and articles are counted). We print log2-binned counts and the
// MLE exponent.
#include <cmath>

#include "analysis/distributions.hpp"
#include "common/fixture.hpp"
#include "util/strings.hpp"

namespace gdelt::bench {
namespace {

void BM_EventSizeDistribution(benchmark::State& state) {
  const auto& db = Db();
  for (auto _ : state) {
    auto hist = analysis::EventSizeDistribution(db);
    benchmark::DoNotOptimize(hist);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(db.num_events()) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventSizeDistribution);

void BM_PowerLawFit(benchmark::State& state) {
  const auto& db = Db();
  for (auto _ : state) {
    const double alpha = analysis::EventSizePowerLawAlpha(db, 2);
    benchmark::DoNotOptimize(alpha);
  }
}
BENCHMARK(BM_PowerLawFit);

void Print() {
  const auto& db = Db();
  const auto hist = analysis::EventSizeDistribution(db);
  std::printf("\n=== Figure 2: events per article count (log2 bins) ===\n");
  std::printf("  %-22s %s\n", "articles per event", "events");
  const std::uint64_t largest = hist.empty() ? 0 : hist.rbegin()->first;
  for (std::uint64_t lo = 1; lo <= largest; lo *= 2) {
    std::uint64_t events = 0;
    for (auto it = hist.lower_bound(lo); it != hist.lower_bound(lo * 2); ++it) {
      events += it->second;
    }
    std::printf("  [%6llu, %6llu)%7s %s\n", static_cast<unsigned long long>(lo),
                static_cast<unsigned long long>(lo * 2), "",
                WithThousands(events).c_str());
  }
  std::printf("MLE power-law alpha (xmin=2): %.2f\n",
              analysis::EventSizePowerLawAlpha(db, 2));
  std::printf("Paper shape: straight power-law decay across the full range "
              "with a mild mid-range bump; configured alpha = %.2f\n",
              Config().event_popularity_alpha);
}

}  // namespace
}  // namespace gdelt::bench

GDELT_BENCH_MAIN(gdelt::bench::Print)
