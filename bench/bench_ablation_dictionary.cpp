// Ablation: dictionary-encoded source column vs raw string comparison
// (DESIGN.md section 5).
//
// The converter replaces every MentionSourceName with a dense u32 id.
// This bench measures the per-source counting scan both ways: integer ids
// against materialized strings, quantifying why the binary format encodes
// low-cardinality strings as dictionary ids.
#include <string>
#include <unordered_map>
#include <vector>

#include "common/fixture.hpp"
#include "engine/filter.hpp"
#include "parallel/parallel.hpp"

namespace gdelt::bench {
namespace {

/// Materialized raw-string column (what scanning CSV-shaped data means).
const std::vector<std::string>& RawStrings() {
  static const std::vector<std::string> strings = [] {
    const auto& db = Db();
    std::vector<std::string> out;
    out.reserve(db.num_mentions());
    for (const std::uint32_t id : db.mention_source_id()) {
      out.emplace_back(db.source_domain(id));
    }
    return out;
  }();
  return strings;
}

void BM_CountByDictionaryId(benchmark::State& state) {
  // Counts through an all-rows selection: ArticlesPerSource(db) returns
  // the totals Load computed, which would time no scan at all.
  const auto& db = Db();
  const auto all = engine::SelectMentionsBitmap(db, engine::MentionFilter{});
  for (auto _ : state) {
    auto counts = engine::ArticlesPerSource(db, kWholeRange, &all);
    benchmark::DoNotOptimize(counts);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(db.num_mentions()) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CountByDictionaryId);

void BM_CountByRawString(benchmark::State& state) {
  const auto& strings = RawStrings();
  for (auto _ : state) {
    std::unordered_map<std::string_view, std::uint64_t> counts;
    for (const auto& s : strings) {
      ++counts[std::string_view(s)];
    }
    benchmark::DoNotOptimize(counts);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(strings.size()) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CountByRawString);

void Print() {
  const auto& db = Db();
  std::size_t string_bytes = 0;
  for (const auto& s : RawStrings()) string_bytes += s.size();
  std::printf("\n=== Ablation: dictionary encoding ===\n");
  std::printf("raw string column: %zu MiB; dictionary-id column: %zu MiB "
              "(%u distinct sources)\n",
              string_bytes / (1024 * 1024),
              db.num_mentions() * 4 / (1024 * 1024), db.num_sources());
}

}  // namespace
}  // namespace gdelt::bench

GDELT_BENCH_MAIN(gdelt::bench::Print)
