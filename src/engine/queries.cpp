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

QuarterWindow QuartersOf(IntervalId first_interval,
                         IntervalId last_interval) {
  QuarterWindow w;
  w.first = QuarterOfUnixSeconds(IntervalStartUnixSeconds(first_interval));
  w.count = QuarterOfUnixSeconds(IntervalStartUnixSeconds(last_interval)) -
            w.first + 1;
  w.bounds.resize(static_cast<std::size_t>(w.count) + 1);
  for (std::int32_t q = 0; q <= w.count; ++q) {
    w.bounds[static_cast<std::size_t>(q)] = QuarterStartInterval(w.first + q);
  }
  return w;
}

QuarterWindow QuartersOf(const Database& db) {
  if (db.num_mentions() > 0) {
    return QuartersOf(db.first_interval(), db.last_interval());
  }
  QuarterWindow none;
  none.first = QuarterOfUnixSeconds(0);
  return none;
}

QuarterSeries EventsPerQuarter(const Database& db, IndexRange events,
                               const util::CancelToken* cancel) {
  TRACE_SPAN("engine.events_per_quarter");
  const QuarterWindow w = QuartersOf(db);
  const auto added = db.event_added_interval();
  QuarterSeries series;
  series.first_quarter = w.first;
  series.values = parallel::PoolHistogram(
      ClampRange(events, added.size()), static_cast<std::size_t>(w.count),
      [&](std::size_t i) { return w.Of(added[i]).value_or(SIZE_MAX); },
      /*selected=*/nullptr, cancel);
  return series;
}

QuarterActivity QuarterlyActivity(const Database& db, std::uint32_t shard,
                                  std::uint32_t of,
                                  const util::CancelToken* cancel) {
  TRACE_SPAN("engine.quarterly_activity");
  const QuarterWindow w = QuartersOf(db);
  const auto src = db.mention_source_id();
  const auto nq = static_cast<std::size_t>(w.count);
  QuarterActivity out;
  out.first_quarter = w.first;
  out.active_sources.assign(nq, 0);
  out.articles.assign(nq, 0);
  // seen[s] == q + 1 once source s has an article in quarter q; quarters
  // stamp their own value, so a slot's table is never cleared.
  std::vector<std::vector<std::uint32_t>> seen(parallel::PoolSlots());
  parallel::PoolParallelFor(
      nq,
      [&](IndexRange r, std::size_t slot) {
        auto& stamp = seen[slot];
        if (stamp.empty()) stamp.assign(db.num_sources(), 0);
        for (std::size_t q = r.begin; q < r.end; ++q) {
          if (q % of != shard) continue;
          const auto mark = static_cast<std::uint32_t>(q + 1);
          ForEachRunInQuarter(db, w, q, [&](IndexRange run) {
            out.articles[q] += run.size();
            for (std::size_t i = run.begin; i < run.end; ++i) {
              out.active_sources[q] += stamp[src[i]] != mark;
              stamp[src[i]] = mark;
            }
          });
        }
      },
      /*morsel_rows=*/1, cancel);
  return out;
}

std::vector<QuarterSeries> SourceArticlesPerQuarter(
    const Database& db, std::span<const std::uint32_t> source_ids) {
  const QuarterWindow w = QuartersOf(db);
  const auto nq = static_cast<std::size_t>(w.count);
  const auto src = db.mention_source_id();

  // Map requested ids to output slots.
  std::vector<std::int32_t> slot_of(db.num_sources(), -1);
  for (std::size_t s = 0; s < source_ids.size(); ++s) {
    slot_of[source_ids[s]] = static_cast<std::int32_t>(s);
  }
  // Bins: nq per requested source, in request order.
  const std::size_t bins = source_ids.size() * nq;
  std::vector<std::vector<std::uint64_t>> partials(parallel::PoolSlots());
  PoolQuarterRuns(
      db, w, kWholeRange, [&](IndexRange run, std::size_t q, std::size_t slot) {
        auto& local = partials[slot];
        if (local.size() != bins) local.assign(bins, 0);
        for (std::size_t i = run.begin; i < run.end; ++i) {
          const std::int32_t k = slot_of[src[i]];
          if (k >= 0) ++local[static_cast<std::size_t>(k) * nq + q];
        }
      });
  std::vector<std::uint64_t> flat(bins, 0);
  parallel::MergeSlotPartials(std::span<std::uint64_t>(flat), partials);

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
