// Reproduces Table VII: the fractional country-cross-reporting matrix —
// the percentage of each publishing country's articles that report on
// events in each reported country.
//
// Paper shape: the USA accounts for 33-47 % of every country's articles;
// percentages are remarkably consistent across publishing countries
// ("large consensus on which countries' events are newsworthy"), with a
// modest home-country elevation on the diagonal (e.g. Australia 5.33 vs a
// ~2.8 baseline).
#include "common/fixture.hpp"
#include "engine/filter.hpp"

namespace gdelt::bench {
namespace {

void BM_AggregatedQueryPct(benchmark::State& state) {
  const auto& db = Db();
  for (auto _ : state) {
    auto report = engine::CountryCrossReporting(db);
    // Percentage extraction is part of the measured query.
    double acc = 0.0;
    for (std::size_t c = 0; c < report.num_countries; ++c) {
      acc += report.Percent(country::kUSA, static_cast<CountryId>(c));
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(db.num_mentions()) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AggregatedQueryPct);

void Print() {
  const auto& db = Db();
  const auto r = engine::CountryCrossReporting(db);
  const auto reported = engine::CountriesByReportedEvents(db, 10);
  const auto publishing = engine::CountriesByPublishedArticles(db, 10);
  std::printf("\n=== Table VII: cross-reporting as %% of publisher's "
              "articles ===\n");
  std::printf("  %-13s", "");
  for (const CountryId p : publishing) {
    std::printf(" %-9.9s", std::string(CountryName(p)).c_str());
  }
  std::printf("\n");
  for (const CountryId rep : reported) {
    std::printf("  %-13.13s", std::string(CountryName(rep)).c_str());
    for (const CountryId p : publishing) {
      std::printf(" %-9.2f", r.Percent(rep, p));
    }
    std::printf("\n");
  }
  // Consistency metric: spread of the USA row across publishers.
  double lo = 100.0, hi = 0.0;
  for (const CountryId p : publishing) {
    const double pct = r.Percent(country::kUSA, p);
    lo = std::min(lo, pct);
    hi = std::max(hi, pct);
  }
  std::printf("USA row across publishers: %.1f..%.1f %% "
              "(paper: 33.3..47.4 %%)\n", lo, hi);
}

}  // namespace
}  // namespace gdelt::bench

GDELT_BENCH_MAIN(gdelt::bench::Print)
