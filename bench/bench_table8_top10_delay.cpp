// Reproduces Table VIII: publication delay statistics for the ten most
// productive news websites.
//
// Paper: every top-10 site has min 1, max 35,135 (~1 year), average 37-48
// and median 13-16 intervals — all members of the "average" speed group
// whose mean is skewed by anniversary republications.
#include "analysis/delay.hpp"
#include "common/fixture.hpp"

namespace gdelt::bench {
namespace {

void BM_Top10DelayStats(benchmark::State& state) {
  const auto& db = Db();
  for (auto _ : state) {
    auto top = engine::TopSourcesByArticles(db, 10);
    auto stats = analysis::PerSourceDelayStats(db, top);
    benchmark::DoNotOptimize(stats);
    benchmark::DoNotOptimize(top);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(db.num_mentions()) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Top10DelayStats);

void Print() {
  const auto& db = Db();
  const auto top = engine::TopSourcesByArticles(db, 10);
  const auto stats = analysis::PerSourceDelayStats(db, top);
  std::printf("\n=== Table VIII: delay statistics, top 10 publishers ===\n");
  std::printf("  %-20s %6s %8s %9s %8s\n", "Publisher", "Min", "Max",
              "Average", "Median");
  for (std::size_t s = 0; s < top.size(); ++s) {
    const auto& st = stats[s];
    std::printf("  %c %-18.18s %6lld %8lld %9.0f %8lld\n",
                static_cast<char>('A' + s),
                std::string(db.source_domain(top[s])).c_str(),
                static_cast<long long>(st.min),
                static_cast<long long>(st.max), st.average,
                static_cast<long long>(st.median));
  }
  std::printf("Paper reference rows: min 1 / max 35,135 / average 37-48 / "
              "median 13-16 for every top-10 site\n");
}

}  // namespace
}  // namespace gdelt::bench

GDELT_BENCH_MAIN(gdelt::bench::Print)
