// Reproduces Figure 7: the follow-reporting matrix of the fifty most
// productive news websites (visualized as a heat map in the paper).
//
// Paper shape: a bright block of heavy follow-reporting among the co-owned
// top publishers, some coupling between those and the rest, and weak
// follow-reporting among the remaining sites. We print the block summary
// (group block mean vs cross and outside means), which is the structure
// the figure conveys.
#include "analysis/followreport.hpp"
#include "common/fixture.hpp"
#include "parallel/morsel.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

namespace gdelt::bench {
namespace {

constexpr std::size_t kTop = 50;
constexpr std::size_t kBlock = 10;  // the Table IV block inside the 50

void BM_FollowReportingTop50(benchmark::State& state) {
  const auto& db = Db();
  const auto top = engine::TopSourcesByArticles(db, kTop);
  for (auto _ : state) {
    auto matrix = analysis::ComputeFollowReporting(db, top);
    benchmark::DoNotOptimize(matrix);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(db.num_mentions()) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FollowReportingTop50);

void Print() {
  const auto& db = Db();
  const auto top = engine::TopSourcesByArticles(db, kTop);
  db.event_distinct_sources();  // build the shared index outside the timing
  WallTimer timer;
  const auto m = analysis::ComputeFollowReporting(db, top);
  {
    BenchJsonWriter json("fig7_follow50");
    json.Record("follow-top50",
                static_cast<int>(parallel::MorselPool::Shared().num_workers()),
                timer.ElapsedSeconds());
  }
  std::printf("\n=== Figure 7: follow-reporting, top %zu sources ===\n",
              top.size());
  // Row-block means reproduce the heat-map structure.
  double block = 0.0, cross = 0.0, outside = 0.0;
  std::size_t nb = 0, ncr = 0, no = 0;
  for (std::size_t i = 0; i < m.n; ++i) {
    for (std::size_t j = 0; j < m.n; ++j) {
      if (i == j) continue;
      const bool bi = i < kBlock;
      const bool bj = j < kBlock;
      if (bi && bj) {
        block += m.F(i, j);
        ++nb;
      } else if (bi != bj) {
        cross += m.F(i, j);
        ++ncr;
      } else {
        outside += m.F(i, j);
        ++no;
      }
    }
  }
  std::printf("  mean f within the top-10 block:   %.4f\n",
              nb ? block / static_cast<double>(nb) : 0.0);
  std::printf("  mean f block <-> rest:            %.4f\n",
              ncr ? cross / static_cast<double>(ncr) : 0.0);
  std::printf("  mean f among the rest:            %.4f\n",
              no ? outside / static_cast<double>(no) : 0.0);
  std::printf("Paper shape: heavy follow-reporting inside the co-owned "
              "block, some towards the rest, low among the rest.\n");
  // Compact 10x10-block-averaged 50x50 rendering (5x5 cells).
  std::printf("  5x5 block-mean heat map (row-major, x1000):\n");
  for (std::size_t bi = 0; bi < 5; ++bi) {
    std::printf("   ");
    for (std::size_t bj = 0; bj < 5; ++bj) {
      double sum = 0.0;
      int cnt = 0;
      for (std::size_t i = bi * 10; i < bi * 10 + 10 && i < m.n; ++i) {
        for (std::size_t j = bj * 10; j < bj * 10 + 10 && j < m.n; ++j) {
          if (i == j) continue;
          sum += m.F(i, j);
          ++cnt;
        }
      }
      std::printf(" %5.0f", cnt ? 1000.0 * sum / cnt : 0.0);
    }
    std::printf("\n");
  }
}

}  // namespace
}  // namespace gdelt::bench

GDELT_BENCH_MAIN(gdelt::bench::Print)
