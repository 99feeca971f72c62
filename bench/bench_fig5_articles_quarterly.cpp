// Reproduces Figure 5: number of articles observed by quarter.
//
// Paper shape: stable around ~55-60 M articles per quarter with a mild
// 2018-2019 decline; partial first quarter. Times the kernel the
// `quarterly` query runs, which counts Fig 3's active sources in the same
// pass.
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
  auto activity = engine::QuarterlyActivity(Db());
  const engine::QuarterSeries series{activity.first_quarter,
                                     std::move(activity.articles)};
  std::printf("\n=== Figure 5: articles per quarter ===\n");
  PrintQuarterSeries("", series);
}

}  // namespace
}  // namespace gdelt::bench

GDELT_BENCH_MAIN(gdelt::bench::Print)
