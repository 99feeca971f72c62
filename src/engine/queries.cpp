#include "engine/queries.hpp"

#include <numeric>

#include "parallel/morsel.hpp"
#include "trace/trace.hpp"

namespace gdelt::engine {

std::span<const std::uint64_t> ArticlesPerSource(const Database& db) {
  return db.source_article_count();
}

std::vector<std::uint32_t> TopSourcesByArticles(const Database& db,
                                                std::size_t k) {
  return RankByCount<std::uint32_t>(db.source_article_count(), k);
}

std::vector<std::uint32_t> AllSources(const Database& db) {
  std::vector<std::uint32_t> ids(db.num_sources());
  std::iota(ids.begin(), ids.end(), 0u);
  return ids;
}

std::vector<TopEvent> TopReportedEvents(const Database& db, std::size_t k,
                                        IndexRange events) {
  const auto counts = db.event_article_count();
  events = ClampRange(events, counts.size());
  TopEventsSelector<TopEvent> top(k);
  for (std::size_t row = events.begin; row < events.end; ++row) {
    top.Offer({static_cast<std::uint32_t>(row), counts[row]});
  }
  return std::move(top).Take();
}

QuarterWindow QuartersOf(const Database& db) {
  QuarterWindow w;
  w.first = QuarterOfUnixSeconds(IntervalStartUnixSeconds(db.first_interval()));
  const QuarterId last =
      QuarterOfUnixSeconds(IntervalStartUnixSeconds(db.last_interval()));
  w.count = db.num_mentions() == 0 ? 0 : last - w.first + 1;
  return w;
}

std::vector<std::int32_t> MentionQuarters(const Database& db) {
  const auto intervals = db.mention_interval();
  const QuarterWindow w = QuartersOf(db);
  std::vector<std::int32_t> quarters(intervals.size());
  parallel::PoolParallelFor(intervals.size(), [&](IndexRange r, std::size_t) {
    for (std::size_t i = r.begin; i < r.end; ++i) {
      quarters[i] =
          QuarterOfUnixSeconds(IntervalStartUnixSeconds(intervals[i])) -
          w.first;
    }
  });
  return quarters;
}

QuarterSeries ArticlesPerQuarter(const Database& db) {
  TRACE_SPAN("engine.articles_per_quarter");
  const QuarterWindow w = QuartersOf(db);
  const auto quarters = MentionQuarters(db);
  QuarterSeries series;
  series.first_quarter = w.first;
  series.values = parallel::PoolHistogram(
      {0, quarters.size()}, static_cast<std::size_t>(w.count),
      [&](std::size_t i) -> std::size_t {
        return static_cast<std::size_t>(quarters[i]);
      });
  return series;
}

QuarterSeries EventsPerQuarter(const Database& db) {
  TRACE_SPAN("engine.events_per_quarter");
  const QuarterWindow w = QuartersOf(db);
  const auto added = db.event_added_interval();
  QuarterSeries series;
  series.first_quarter = w.first;
  series.values = parallel::PoolHistogram(
      {0, added.size()}, static_cast<std::size_t>(w.count),
      [&](std::size_t i) -> std::size_t {
        const std::int32_t q =
            QuarterOfUnixSeconds(IntervalStartUnixSeconds(added[i])) - w.first;
        return q < 0 ? SIZE_MAX : static_cast<std::size_t>(q);
      });
  return series;
}

QuarterSeries ActiveSourcesPerQuarter(const Database& db) {
  TRACE_SPAN("engine.active_sources_per_quarter");
  const QuarterWindow w = QuartersOf(db);
  const auto quarters = MentionQuarters(db);
  const auto src = db.mention_source_id();
  const std::size_t nq = static_cast<std::size_t>(w.count);
  const std::size_t ns = db.num_sources();

  // (source, quarter) presence bitmap, built with per-slot OR then merged.
  std::vector<std::vector<std::uint8_t>> locals(parallel::PoolSlots());
  parallel::PoolParallelFor(
      quarters.size(), [&](IndexRange r, std::size_t slot) {
        auto& local = locals[slot];
        if (local.empty()) local.assign(nq * ns, 0);
        for (std::size_t i = r.begin; i < r.end; ++i) {
          local[static_cast<std::size_t>(quarters[i]) * ns + src[i]] = 1;
        }
      });
  QuarterSeries series;
  series.first_quarter = w.first;
  series.values.assign(nq, 0);
  for (std::size_t q = 0; q < nq; ++q) {
    std::uint64_t active = 0;
    for (std::size_t s = 0; s < ns; ++s) {
      for (const auto& local : locals) {
        if (!local.empty() && local[q * ns + s]) {
          ++active;
          break;
        }
      }
    }
    series.values[q] = active;
  }
  return series;
}

std::vector<QuarterSeries> SourceArticlesPerQuarter(
    const Database& db, std::span<const std::uint32_t> source_ids) {
  const QuarterWindow w = QuartersOf(db);
  const auto nq = static_cast<std::size_t>(w.count);
  const auto quarters = MentionQuarters(db);
  const auto src = db.mention_source_id();

  // Map requested ids to output slots.
  std::vector<std::int32_t> slot_of(db.num_sources(), -1);
  for (std::size_t s = 0; s < source_ids.size(); ++s) {
    slot_of[source_ids[s]] = static_cast<std::int32_t>(s);
  }
  const std::size_t bins = source_ids.size() * nq;
  auto flat = parallel::PoolHistogram(
      {0, quarters.size()}, bins, [&](std::size_t i) -> std::size_t {
        const std::int32_t slot = slot_of[src[i]];
        if (slot < 0) return SIZE_MAX;
        return static_cast<std::size_t>(slot) * nq +
               static_cast<std::size_t>(quarters[i]);
      });

  std::vector<QuarterSeries> out(source_ids.size());
  for (std::size_t s = 0; s < source_ids.size(); ++s) {
    out[s].first_quarter = w.first;
    out[s].values.assign(flat.begin() + static_cast<std::ptrdiff_t>(s * nq),
                         flat.begin() + static_cast<std::ptrdiff_t>((s + 1) * nq));
  }
  return out;
}

CountryCrossReport CountryCrossReport::FromBins(
    std::size_t num_countries, std::vector<std::uint64_t> bins) {
  const std::size_t nc = num_countries;
  CountryCrossReport report;
  report.num_countries = nc;
  report.articles_per_publisher.assign(
      bins.begin() + static_cast<std::ptrdiff_t>(nc * nc), bins.end());
  bins.resize(nc * nc);
  report.counts = std::move(bins);
  for (std::size_t rep = 0; rep < nc; ++rep) {
    for (std::size_t pub = 0; pub < nc; ++pub) {
      report.articles_per_publisher[pub] += report.counts[rep * nc + pub];
    }
  }
  return report;
}

std::vector<CountryId> CountriesByReportedEvents(const Database& db,
                                                 std::size_t k) {
  return RankByCount<CountryId>(db.country_event_count(), k);
}

std::vector<CountryId> CountriesByPublishedArticles(const Database& db,
                                                    std::size_t k) {
  return RankByCount<CountryId>(db.country_article_count(), k);
}

}  // namespace gdelt::engine
