// Reproduces Table VI: the country-cross-reporting matrix — number of
// articles each publishing country wrote about events located in each
// reported country. This is the paper's headline "single aggregated
// query" (Section VI-G).
//
// Paper shape: the matrix is asymmetric; the USA row dwarfs everything
// (188 M articles from the UK alone); the UK/USA/Australia columns carry
// almost all the volume.
#include "common/fixture.hpp"
#include "engine/filter.hpp"
#include "util/strings.hpp"

namespace gdelt::bench {
namespace {

void BM_AggregatedQuery(benchmark::State& state) {
  const auto& db = Db();
  for (auto _ : state) {
    auto report = engine::CountryCrossReporting(db);
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(db.num_mentions()) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AggregatedQuery);

void Print() {
  const auto& db = Db();
  const auto r = engine::CountryCrossReporting(db);
  const auto reported = engine::CountriesByReportedEvents(db, 10);
  const auto publishing = engine::CountriesByPublishedArticles(db, 10);
  std::printf("\n=== Table VI: country cross-reporting (article counts) ===\n");
  std::printf("  rows = reported-on country, cols = publishing country\n");
  std::printf("  %-13s", "");
  for (const CountryId p : publishing) {
    std::printf(" %-10.9s", std::string(CountryName(p)).c_str());
  }
  std::printf("\n");
  for (const CountryId rep : reported) {
    std::printf("  %-13.13s", std::string(CountryName(rep)).c_str());
    for (const CountryId p : publishing) {
      std::printf(" %-10s", WithThousands(r.At(rep, p)).c_str());
    }
    std::printf("\n");
  }
  std::printf("Paper shape: USA row dominates every column; UK and USA "
              "publish the most, Australia third.\n");
}

}  // namespace
}  // namespace gdelt::bench

GDELT_BENCH_MAIN(gdelt::bench::Print)
