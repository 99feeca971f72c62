// Ablation: aggregation strategy for the per-source article count —
// per-slot pool histogram merge (the engine's choice) vs hash-map
// group-by (DESIGN.md section 5). The sort-based group-by variant was
// retired with its parallel sort; its last number is in EXPERIMENTS.md.
#include <unordered_map>

#include "common/fixture.hpp"
#include "parallel/morsel.hpp"

namespace gdelt::bench {
namespace {

void BM_GroupByHistogram(benchmark::State& state) {
  const auto& db = Db();
  const auto src = db.mention_source_id();
  for (auto _ : state) {
    auto counts = parallel::PoolHistogram(
        {0, src.size()}, db.num_sources(),
        [&](std::size_t i) -> std::size_t { return src[i]; });
    benchmark::DoNotOptimize(counts);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(src.size()) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_GroupByHistogram);

void BM_GroupByHashMap(benchmark::State& state) {
  const auto& db = Db();
  const auto src = db.mention_source_id();
  for (auto _ : state) {
    std::unordered_map<std::uint32_t, std::uint64_t> counts;
    counts.reserve(db.num_sources());
    for (const std::uint32_t s : src) ++counts[s];
    benchmark::DoNotOptimize(counts);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(src.size()) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_GroupByHashMap);

void Print() {
  std::printf("\n=== Ablation: group-by strategy ===\n");
  std::printf("Expected ordering on dense low-cardinality keys: histogram "
              "< hash-map (the engine uses the per-slot pool histogram "
              "merge).\n");
}

}  // namespace
}  // namespace gdelt::bench

GDELT_BENCH_MAIN(gdelt::bench::Print)
