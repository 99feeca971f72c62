// Reproduces Figure 8: the countries-cross-reporting matrix for the fifty
// most reported-on and most publishing countries, log scale.
//
// Paper shape: countries outside the Top 10 contribute little to global
// English-language news, but the first row (USA) is bright across all 50
// columns — everyone reports on the US.
#include <cmath>

#include "common/fixture.hpp"
#include "engine/filter.hpp"

namespace gdelt::bench {
namespace {

constexpr std::size_t kTop = 50;

void BM_Cross50(benchmark::State& state) {
  const auto& db = Db();
  for (auto _ : state) {
    auto report = engine::CountryCrossReporting(db);
    auto reported = engine::CountriesByReportedEvents(db, kTop);
    auto publishing = engine::CountriesByPublishedArticles(db, kTop);
    benchmark::DoNotOptimize(report);
    benchmark::DoNotOptimize(reported);
    benchmark::DoNotOptimize(publishing);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(db.num_mentions()) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Cross50);

void Print() {
  const auto& db = Db();
  const auto r = engine::CountryCrossReporting(db);
  const auto reported = engine::CountriesByReportedEvents(db, kTop);
  const auto publishing = engine::CountriesByPublishedArticles(db, kTop);
  std::printf("\n=== Figure 8: 50x50 cross-reporting, log10(articles) ===\n");
  std::printf("  rows = reported-on (by events), cols = publishing "
              "(by articles); '.' = 0\n");
  for (std::size_t i = 0; i < reported.size(); ++i) {
    std::printf("  %-13.13s",
                std::string(CountryName(reported[i])).c_str());
    for (std::size_t j = 0; j < publishing.size(); ++j) {
      const std::uint64_t v = r.At(reported[i], publishing[j]);
      if (v == 0) {
        std::printf(".");
      } else {
        const int mag = static_cast<int>(std::log10(static_cast<double>(v)));
        std::printf("%d", std::min(mag, 9));
      }
    }
    std::printf("\n");
  }
  // The bright-first-row property.
  std::size_t nonzero_in_usa_row = 0;
  for (std::size_t j = 0; j < publishing.size(); ++j) {
    if (r.At(country::kUSA, publishing[j]) > 0) ++nonzero_in_usa_row;
  }
  std::printf("publishers reporting on the USA: %zu of %zu "
              "(paper: almost all 50)\n", nonzero_in_usa_row,
              publishing.size());
}

}  // namespace
}  // namespace gdelt::bench

GDELT_BENCH_MAIN(gdelt::bench::Print)
