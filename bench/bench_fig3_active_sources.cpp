// Reproduces Figure 3: number of sources active during each quarter.
//
// Paper shape: only about one third of the ~21 k tracked sources are
// active in any given quarter; the series is stable with a slight dip in
// 2018-2019. Times the kernel the `quarterly` query runs, which counts
// Fig 5's articles in the same pass.
#include "common/fixture.hpp"

namespace gdelt::bench {
namespace {

void BM_QuarterlyActivity(benchmark::State& state) {
  const auto& db = Db();
  for (auto _ : state) {
    auto activity = engine::QuarterlyActivity(db);
    benchmark::DoNotOptimize(activity);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(db.num_mentions()) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_QuarterlyActivity);

void Print() {
  const auto& db = Db();
  auto activity = engine::QuarterlyActivity(db);
  const engine::QuarterSeries series{activity.first_quarter,
                                     std::move(activity.active_sources)};
  std::printf("\n=== Figure 3: active sources per quarter ===\n");
  PrintQuarterSeries("", series);
  double sum = 0.0;
  for (const auto v : series.values) sum += static_cast<double>(v);
  const double avg_fraction =
      series.values.empty()
          ? 0.0
          : sum / static_cast<double>(series.values.size()) /
                static_cast<double>(db.num_sources());
  std::printf("average active fraction: %.2f (paper: ~1/3 of sources)\n",
              avg_fraction);
}

}  // namespace
}  // namespace gdelt::bench

GDELT_BENCH_MAIN(gdelt::bench::Print)
