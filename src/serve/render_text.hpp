// Shared text formatting for the query renderers.
//
// The bodies here are the printf transcriptions that produce the exact
// bytes of every query's `text` payload. They take plain aggregates and
// pre-resolved labels — no database — so one finish per query kind
// (partial.cpp) renders both a single node's partition 0 of 1 and the
// router's sum of shard frames. There is exactly one copy of every
// format string.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/coreport.hpp"
#include "analysis/country.hpp"
#include "analysis/delay.hpp"
#include "analysis/followreport.hpp"
#include "engine/queries.hpp"

namespace gdelt::serve {

/// printf-append; the render bodies are transcriptions of the original
/// gdelt_query printf calls, so keeping the printf idiom keeps the bytes
/// identical.
void Appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void AppendQuarterSeries(std::string& out, const char* label,
                         const engine::QuarterSeries& series);

/// Ids 0..counts.size() ranked by count, descending, truncated to
/// `top_k`. Deliberately NO tie-break (ties keep partial_sort's order):
/// this is the historical restricted-ranking comparator; the finish runs
/// it on the same count vector on a single node and at the router, so
/// both rank identically.
std::vector<std::uint32_t> RankSources(
    const std::vector<std::uint64_t>& counts, std::size_t top_k);

/// Ranked source listing (`top-sources`); `labels[k]` / `counts[k]` are
/// the k-th ranked source's domain and article count.
void AppendTopSourcesText(std::string& out,
                          const std::vector<std::string>& labels,
                          const std::vector<std::uint64_t>& counts,
                          bool restricted);

/// Table III listing (`top-events`); parallel arrays over ranked events.
void AppendTopEventsText(std::string& out,
                         const std::vector<std::uint32_t>& articles,
                         const std::vector<std::string>& urls);

/// Jaccard matrix among ranked sources (`coreport`), plain or restricted.
void AppendCoreportText(std::string& out,
                        const std::vector<std::string>& labels,
                        const analysis::CoReportMatrix& matrix,
                        bool restricted);

/// Follow-reporting matrix + Sum row (`follow`).
void AppendFollowText(std::string& out,
                      const std::vector<std::string>& labels,
                      const analysis::FollowReportMatrix& matrix);

/// Country Jaccard matrix (`country-coreport`) over ranked country ids.
void AppendCountryCoreportText(std::string& out,
                               const std::vector<CountryId>& top,
                               const analysis::CountryCoReport& report);

/// Tables VI/VII (`cross-report`); the restricted flavor prints only the
/// windowed count matrix.
void AppendCrossReportText(std::string& out,
                           const std::vector<CountryId>& reported,
                           const std::vector<CountryId>& publishing,
                           const engine::CountryCrossReport& report,
                           bool restricted);

/// Table VIII + Fig 10 (`delay`); `stats[k]` belongs to `labels[k]`.
void AppendDelayText(std::string& out,
                     const std::vector<std::string>& labels,
                     const std::vector<analysis::DelayStats>& stats,
                     const analysis::QuarterlyDelay& quarterly);

/// First-reporter listing (`first-reports`); parallel arrays over the
/// ranked sources, plus the dataset-wide footer counters.
void AppendFirstReportsText(std::string& out,
                            const std::vector<std::string>& labels,
                            const std::vector<std::uint64_t>& breaks,
                            const std::vector<std::uint64_t>& articles,
                            const std::vector<double>& repeat_rate_pct,
                            std::uint64_t within_hour,
                            std::uint64_t num_events);

}  // namespace gdelt::serve
