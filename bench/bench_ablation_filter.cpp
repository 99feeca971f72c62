// Ablation: filtered (user-defined) queries — selection materialization
// cost vs the narrowed aggregation, against the full-table kernels.
//
// The paper's engine is built for "user-defined queries"; the common
// restriction patterns are a time window (one quarter of a crisis) and an
// extraction-confidence cut. This bench shows that a selection bitmap
// amortizes: select once, run several aggregates over the subset.
#include <algorithm>

#include "common/fixture.hpp"
#include "engine/filter.hpp"
#include "parallel/morsel.hpp"
#include "util/timer.hpp"

namespace gdelt::bench {
namespace {

engine::MentionFilter QuarterWindowFilter() {
  const auto& db = Db();
  engine::MentionFilter f;
  const std::int64_t span = db.last_interval() - db.first_interval();
  f.begin_interval = db.first_interval() + span / 2;
  f.end_interval = f.begin_interval + span / 20;  // ~one quarter of 5 years
  return f;
}

void BM_SelectQuarterWindow(benchmark::State& state) {
  const auto& db = Db();
  const auto f = QuarterWindowFilter();
  for (auto _ : state) {
    auto rows = engine::SelectMentionsBitmap(db, f).ToRows();
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(db.num_mentions()) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SelectQuarterWindow);

void BM_FilteredAggregate(benchmark::State& state) {
  const auto& db = Db();
  const auto sel = engine::SelectMentionsBitmap(db, QuarterWindowFilter());
  for (auto _ : state) {
    auto report = engine::CountryCrossReporting(db, kWholeRange, &sel);
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(sel.CountSet()) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FilteredAggregate);

void BM_FullTableAggregate(benchmark::State& state) {
  const auto& db = Db();
  for (auto _ : state) {
    auto report = engine::CountryCrossReporting(db);
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(db.num_mentions()) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FullTableAggregate);

/// SIMD-vs-scalar on the bitmap path (same pool, same morsel size; the
/// only variable is the compare kernels).
void BM_SelectBitmapSimdToggle(benchmark::State& state) {
  const auto& db = Db();
  const auto f = QuarterWindowFilter();
  const bool saved = engine::SimdEnabled();
  engine::SetSimdEnabled(state.range(0) != 0);
  for (auto _ : state) {
    auto sel = engine::SelectMentionsBitmap(db, f);
    benchmark::DoNotOptimize(sel);
  }
  engine::SetSimdEnabled(saved);
  state.SetItemsProcessed(static_cast<std::int64_t>(db.num_mentions()) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SelectBitmapSimdToggle)->Arg(0)->Arg(1);

/// Wall seconds of `body`, best of `reps` runs (steady-state estimate).
template <typename Body>
double BestOf(int reps, Body&& body) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    WallTimer timer;
    body();
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best;
}

void Print() {
  const auto& db = Db();
  const auto f = QuarterWindowFilter();
  const auto rows = engine::SelectMentionsBitmap(db, f).ToRows();
  std::printf("\n=== Ablation: user-defined (filtered) queries ===\n");
  std::printf("quarter-window selection: %zu of %zu mentions (%.1f%%); "
              "aggregates over the row set touch only that fraction.\n",
              rows.size(), db.num_mentions(),
              100.0 * static_cast<double>(rows.size()) /
                  static_cast<double>(db.num_mentions()));

  // One JSON record per configuration: scalar-vs-SIMD toggle on the
  // vectorized selection and the morsel-size sweep over the
  // filter→aggregate chain.
  BenchJsonWriter writer("ablation_filter");
  constexpr int kReps = 5;
  const auto threads =
      static_cast<int>(parallel::MorselPool::Shared().num_workers());
  const bool saved_simd = engine::SimdEnabled();

  engine::SetSimdEnabled(false);
  const double scalar_s = BestOf(kReps, [&] {
    auto sel = engine::SelectMentionsBitmap(db, f);
    benchmark::DoNotOptimize(sel);
  });
  writer.Record("select_bitmap_scalar", threads, scalar_s);

  engine::SetSimdEnabled(true);
  const bool simd_available = engine::SimdEnabled();
  const double simd_s = BestOf(kReps, [&] {
    auto sel = engine::SelectMentionsBitmap(db, f);
    benchmark::DoNotOptimize(sel);
  });
  writer.Record(simd_available ? "select_bitmap_simd"
                               : "select_bitmap_simd_unavailable",
                threads, simd_s);
  engine::SetSimdEnabled(saved_simd);

  std::printf("\nvectorized selection (interval+confidence passes):\n"
              "  scalar bitmap   : %8.3f ms\n"
              "  simd bitmap     : %8.3f ms%s\n"
              "  simd vs scalar  : %.2fx\n",
              scalar_s * 1e3, simd_s * 1e3,
              simd_available ? "" : "  (AVX2 unavailable: scalar fallback)",
              scalar_s / simd_s);

  // Morsel-size sweep: selection + one bitmap aggregate per size, so the
  // sweep sees both the word-parallel passes and the aggregate reuse.
  std::printf("\nmorsel-size sweep (filter + cross-report aggregate):\n");
  for (const std::size_t morsel_rows :
       {std::size_t{1024}, std::size_t{4096}, std::size_t{16384},
        std::size_t{65536}, std::size_t{262144}}) {
    parallel::SetMorselRows(morsel_rows);
    const double sweep_s = BestOf(kReps, [&] {
      const auto sel = engine::SelectMentionsBitmap(db, f);
      auto report = engine::CountryCrossReporting(db, kWholeRange, &sel);
      benchmark::DoNotOptimize(report);
    });
    writer.Record("filter_aggregate_morsel_" + std::to_string(morsel_rows),
                  threads, sweep_s);
    std::printf("  %7zu rows/morsel: %8.3f ms\n", morsel_rows,
                sweep_s * 1e3);
  }
  parallel::SetMorselRows(0);

  // Window-width series: selection plus the filtered top-sources
  // aggregate, from a dashboard week to the whole table. The zone map
  // makes the narrow windows cost their own rows, not the table's.
  std::printf("\nwindow-width series (select + articles per source):\n");
  const std::int64_t mid =
      db.first_interval() + (db.last_interval() - db.first_interval()) / 2;
  struct Window {
    const char* name;
    std::int64_t begin;
    std::int64_t end;
  };
  const Window windows[] = {
      {"7d", mid, mid + 7 * kIntervalsPerDay},
      {"90d", mid, mid + 90 * kIntervalsPerDay},
      {"quarter", f.begin_interval, f.end_interval},
      {"full", db.first_interval(), db.last_interval() + 1},
  };
  for (const Window& w : windows) {
    engine::MentionFilter window;
    window.begin_interval = w.begin;
    window.end_interval = w.end;
    std::uint64_t selected = 0;
    const double window_s = BestOf(kReps, [&] {
      const auto sel = engine::SelectMentionsBitmap(db, window);
      auto counts = engine::ArticlesPerSource(db, kWholeRange, &sel);
      selected = sel.CountSet();
      benchmark::DoNotOptimize(counts);
    });
    writer.Record(std::string("window_") + w.name + "_select_top_sources",
                  threads, window_s);
    std::printf("  %-8s %9llu rows: %8.3f ms\n", w.name,
                static_cast<unsigned long long>(selected), window_s * 1e3);
  }
}

}  // namespace
}  // namespace gdelt::bench

GDELT_BENCH_MAIN(gdelt::bench::Print)
