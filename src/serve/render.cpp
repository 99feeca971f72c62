#include "serve/render.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "analysis/coreport.hpp"
#include "analysis/country.hpp"
#include "analysis/delay.hpp"
#include "analysis/distributions.hpp"
#include "analysis/firstreport.hpp"
#include "analysis/followreport.hpp"
#include "analysis/stats.hpp"
#include "analysis/tone.hpp"
#include "engine/filter.hpp"
#include "engine/queries.hpp"
#include "serve/partial.hpp"
#include "serve/render_text.hpp"
#include "util/strings.hpp"

namespace gdelt::serve {
namespace {

/// Domain labels of a ranked source-id list.
std::vector<std::string> SourceLabels(const engine::Database& db,
                                      std::span<const std::uint32_t> ids) {
  std::vector<std::string> labels;
  labels.reserve(ids.size());
  for (const std::uint32_t s : ids) {
    labels.emplace_back(db.source_domain(s));
  }
  return labels;
}

/// Per-rank projection of a per-source-id count vector.
std::vector<std::uint64_t> CountsOf(std::span<const std::uint64_t> counts,
                                    std::span<const std::uint32_t> ids) {
  std::vector<std::uint64_t> out;
  out.reserve(ids.size());
  for (const std::uint32_t s : ids) out.push_back(counts[s]);
  return out;
}

/// The restricted (window/confidence-filtered) query family: the
/// vectorized bitmap filter feeds the selection bitmap straight into the
/// filtered aggregates — mention rows are materialized only when a kernel
/// needs an explicit row list (the restricted co-reporting rebuild).
Result<RenderedQuery> RenderRestricted(const engine::Database& db,
                                       const Request& r,
                                       const util::CancelToken* cancel) {
  RenderedQuery out;
  const engine::SelectionBitmap sel = engine::SelectMentionsBitmap(db, r.filter);
  out.note = StrFormat("[filter selects %llu of %zu mentions]",
                       static_cast<unsigned long long>(sel.CountSet()),
                       db.num_mentions());
  if (r.kind == "top-sources") {
    const auto counts = engine::ArticlesPerSource(db, sel);
    const auto ids = RankSources(counts, r.top_k);
    AppendTopSourcesText(out.text, SourceLabels(db, ids), CountsOf(counts, ids),
                         /*restricted=*/true);
    return out;
  }
  if (r.kind == "coreport") {
    const auto counts = engine::ArticlesPerSource(db, sel);
    const auto top = RankSources(counts, r.top_k);
    // The per-event rebuild wants explicit rows; pay the materialization
    // only on this branch.
    const auto matrix =
        analysis::ComputeCoReporting(db, top, sel.ToRows(), cancel);
    AppendCoreportText(out.text, SourceLabels(db, top), matrix,
                       /*restricted=*/true);
    return out;
  }
  // cross-report
  const auto report = engine::CountryCrossReporting(db, sel);
  const auto reported = engine::CountriesByReportedEvents(db, r.top_k);
  const auto publishing = engine::CountriesByPublishedArticles(db, r.top_k);
  AppendCrossReportText(out.text, reported, publishing, report,
                        /*restricted=*/true);
  return out;
}

/// Unchecked dispatch; RenderQuery wraps it with the cancellation
/// enforcement boundary.
Result<RenderedQuery> RenderQueryImpl(const engine::Database& db,
                                      const Request& r,
                                      const util::CancelToken* cancel) {
  const std::string& query = r.kind;
  const std::size_t top_k = r.top_k;
  if (r.partial) {
    return RenderPartialFrame(db, r, parallel::Backend::kMorselPool, cancel);
  }
  if (r.restricted && (query == "top-sources" || query == "cross-report" ||
                       query == "coreport")) {
    return RenderRestricted(db, r, cancel);
  }
  RenderedQuery out;
  if (query == "stats") {
    out.text = analysis::ComputeDatasetStatistics(db).ToText();
    Appendf(out.text, "Event-size power-law alpha (MLE, xmin=2): %.2f\n",
            analysis::EventSizePowerLawAlpha(db, 2));
    return out;
  }
  if (query == "top-sources") {
    const auto counts = engine::ArticlesPerSource(db);
    const auto top = engine::TopSourcesByArticles(db, top_k);
    AppendTopSourcesText(out.text, SourceLabels(db, top), CountsOf(counts, top),
                         /*restricted=*/false);
    return out;
  }
  if (query == "top-events") {
    const auto top = engine::TopReportedEvents(db, top_k);
    std::vector<std::uint32_t> articles;
    std::vector<std::string> urls;
    for (const auto& ev : top) {
      articles.push_back(ev.articles);
      urls.emplace_back(db.event_source_url(ev.event_row));
    }
    AppendTopEventsText(out.text, articles, urls);
    return out;
  }
  if (query == "quarterly") {
    AppendQuarterSeries(out.text, "Active sources per quarter (Fig 3):",
                        engine::ActiveSourcesPerQuarter(db));
    AppendQuarterSeries(out.text, "Events per quarter (Fig 4):",
                        engine::EventsPerQuarter(db));
    AppendQuarterSeries(out.text, "Articles per quarter (Fig 5):",
                        engine::ArticlesPerQuarter(db));
    return out;
  }
  if (query == "coreport") {
    const auto top = engine::TopSourcesByArticles(db, top_k);
    analysis::TiledCoReportOptions coreport_options;
    coreport_options.cancel = cancel;
    const auto matrix = analysis::ComputeCoReporting(db, top, coreport_options);
    AppendCoreportText(out.text, SourceLabels(db, top), matrix,
                       /*restricted=*/false);
    return out;
  }
  if (query == "follow") {
    const auto top = engine::TopSourcesByArticles(db, top_k);
    const auto matrix = analysis::ComputeFollowReporting(db, top, cancel);
    AppendFollowText(out.text, SourceLabels(db, top), matrix);
    return out;
  }
  if (query == "country-coreport") {
    const auto report = analysis::ComputeCountryCoReporting(db, cancel);
    const auto top = engine::CountriesByPublishedArticles(db, top_k);
    AppendCountryCoreportText(out.text, top, report);
    return out;
  }
  if (query == "cross-report") {
    const auto report = engine::CountryCrossReporting(db);
    const auto reported = engine::CountriesByReportedEvents(db, top_k);
    const auto publishing = engine::CountriesByPublishedArticles(db, top_k);
    AppendCrossReportText(out.text, reported, publishing, report,
                          /*restricted=*/false);
    return out;
  }
  if (query == "delay") {
    const auto stats = analysis::PerSourceDelayStats(db, cancel);
    const auto top = engine::TopSourcesByArticles(db, top_k);
    std::vector<analysis::DelayStats> top_stats;
    top_stats.reserve(top.size());
    for (const std::uint32_t s : top) top_stats.push_back(stats[s]);
    AppendDelayText(out.text, SourceLabels(db, top), top_stats,
                    analysis::QuarterlyDelayStats(db));
    return out;
  }
  if (query == "tone") {
    const auto by_quad = analysis::ToneByQuadClass(db);
    static constexpr const char* kQuadNames[] = {
        "", "verbal cooperation", "material cooperation", "verbal conflict",
        "material conflict"};
    Appendf(out.text, "Average tone / Goldstein by CAMEO quad class:\n");
    for (std::size_t q = 1; q <= 4; ++q) {
      Appendf(out.text, "  %-22s tone %+6.2f  goldstein %+6.2f  (%s events)\n",
              kQuadNames[q], by_quad.tone[q].Mean(),
              by_quad.goldstein[q].Mean(),
              WithThousands(by_quad.tone[q].count).c_str());
    }
    const auto by_country = analysis::AverageToneByCountry(db);
    const auto reported = engine::CountriesByReportedEvents(db, top_k);
    Appendf(out.text, "\nAverage event tone by located country:\n");
    for (const CountryId c : reported) {
      Appendf(out.text, "  %-14s %+6.2f  (%s events)\n",
              std::string(CountryName(c)).c_str(), by_country[c].Mean(),
              WithThousands(by_country[c].count).c_str());
    }
    return out;
  }
  if (query == "first-reports") {
    const auto stats =
        analysis::ComputeFirstReports(db, /*histogram_bins=*/18, cancel);
    const auto counts = engine::ArticlesPerSource(db);
    const auto by_breaks = RankSources(stats.first_reports, top_k);
    std::vector<std::uint64_t> breaks;
    std::vector<double> rate_pct;
    for (const std::uint32_t s : by_breaks) {
      breaks.push_back(stats.first_reports[s]);
      rate_pct.push_back(100.0 * stats.RepeatRate(s, counts[s]));
    }
    AppendFirstReportsText(out.text, SourceLabels(db, by_breaks), breaks,
                           CountsOf(counts, by_breaks), rate_pct,
                           stats.events_broken_within_hour, db.num_events());
    return out;
  }
  return status::InvalidArgument("unknown query '" + query + "'");
}

}  // namespace

Result<RenderedQuery> RenderQuery(const engine::Database& db,
                                  const Request& r,
                                  const util::CancelToken* cancel) {
  auto out = RenderQueryImpl(db, r, cancel);
  // Enforcement boundary: a kernel that observed the token mid-scan bailed
  // with a short count, so whatever Impl rendered is garbage. Re-check the
  // token here and replace the result wholesale — callers either get the
  // complete text or kCancelled, never a truncated aggregate.
  if (util::Cancelled(cancel)) {
    return status::Cancelled("query cancelled during execution");
  }
  return out;
}

}  // namespace gdelt::serve
