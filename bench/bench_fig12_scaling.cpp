// Reproduces Figure 12: strong scaling of the aggregated query execution
// engine.
//
// Paper: the single aggregated query behind Tables V-VII took 344 s
// single-threaded and 43 s with OpenMP on the 64-core EPYC node (8x),
// with scaling hampered by single-node I/O. We run the same aggregated
// query (country cross-reporting + country co-reporting, one pass each)
// on private morsel pools of 1, 2, 4, ... workers, up to the default
// pool size (OMP_NUM_THREADS, else the hardware threads), and report the
// speedup curve. The calling thread drains its own morsels too, so a
// pool of t workers runs the query on up to t + 1 threads.
#include "analysis/country.hpp"
#include "common/fixture.hpp"
#include "engine/filter.hpp"
#include "parallel/morsel.hpp"
#include "util/timer.hpp"

namespace gdelt::bench {
namespace {

/// The paper's "single aggregated query": both country matrices in one go.
double RunAggregatedQuery(const engine::Database& db) {
  const auto cross = engine::CountryCrossReporting(db);
  const auto co = analysis::ComputeCountryCoReporting(db);
  // Return something data-dependent so nothing is optimized away.
  return static_cast<double>(cross.At(country::kUSA, country::kUK)) +
         co.Jaccard(country::kUK, country::kUSA);
}

/// Worker count of the default-sized pool: the top of the sweep.
int DefaultWorkers() {
  return static_cast<int>(parallel::MorselPool::Shared().num_workers());
}

void BM_AggregatedQueryThreads(benchmark::State& state) {
  const auto& db = Db();
  parallel::MorselPool pool(static_cast<int>(state.range(0)));
  const parallel::ScopedPool use_pool(pool);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunAggregatedQuery(db));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(db.num_mentions()) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AggregatedQueryThreads)
    ->RangeMultiplier(2)
    ->Range(1, DefaultWorkers())
    ->Unit(benchmark::kMillisecond);

void Print() {
  const auto& db = Db();
  const int hw = DefaultWorkers();
  std::printf("\n=== Figure 12: aggregated-query scaling ===\n");
  std::printf("  %-10s %12s %9s\n", "workers", "seconds", "speedup");
  BenchJsonWriter json("fig12_scaling");
  double t1 = 0.0;
  for (int t = 1; t <= hw; t *= 2) {
    parallel::MorselPool pool(t);
    const parallel::ScopedPool use_pool(pool);
    // Warm once, then take the best of 3 runs.
    RunAggregatedQuery(db);
    double best = 1e100;
    for (int rep = 0; rep < 3; ++rep) {
      WallTimer timer;
      benchmark::DoNotOptimize(RunAggregatedQuery(db));
      best = std::min(best, timer.ElapsedSeconds());
    }
    if (t == 1) t1 = best;
    json.Record("aggregated-query", t, best);
    std::printf("  %-10d %12.4f %8.2fx\n", t, best,
                t1 > 0 ? t1 / best : 0.0);
  }
  std::printf("Paper reference: 344 s at 1 thread -> 43 s with OpenMP "
              "(8.0x on 64 cores, I/O-bound tail). Default pool: %d "
              "worker(s).\n", hw);
}

}  // namespace
}  // namespace gdelt::bench

GDELT_BENCH_MAIN(gdelt::bench::Print)
