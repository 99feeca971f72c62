#include "serve/render.hpp"

#include <string>

#include "analysis/distributions.hpp"
#include "analysis/stats.hpp"
#include "analysis/tone.hpp"
#include "engine/queries.hpp"
#include "serve/partial.hpp"
#include "serve/render_text.hpp"
#include "util/strings.hpp"

namespace gdelt::serve {
namespace {

/// Unchecked dispatch; RenderQuery wraps it with the cancellation
/// enforcement boundary.
Result<RenderedQuery> RenderQueryImpl(const engine::Database& db,
                                      const Request& r,
                                      const util::CancelToken* cancel) {
  const std::string& query = r.kind;
  if (r.partial) {
    return RenderPartialFrame(db, r, parallel::Backend::kMorselPool, cancel);
  }
  if (IsPartialQueryKind(query)) return RenderWhole(db, r, cancel);
  RenderedQuery out;
  if (query == "stats") {
    out.text = analysis::ComputeDatasetStatistics(db).ToText();
    Appendf(out.text, "Event-size power-law alpha (MLE, xmin=2): %.2f\n",
            analysis::EventSizePowerLawAlpha(db, 2));
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
    const auto reported = engine::CountriesByReportedEvents(db, r.top_k);
    Appendf(out.text, "\nAverage event tone by located country:\n");
    for (const CountryId c : reported) {
      Appendf(out.text, "  %-14s %+6.2f  (%s events)\n",
              std::string(CountryName(c)).c_str(), by_country[c].Mean(),
              WithThousands(by_country[c].count).c_str());
    }
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
