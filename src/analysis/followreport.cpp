#include "analysis/followreport.hpp"

#include <algorithm>

#include "engine/queries.hpp"
#include "parallel/morsel.hpp"
#include "trace/trace.hpp"

namespace gdelt::analysis {
namespace {

/// Per-worker scratch reused across the events of one morsel: subset
/// members that have already published on the current event, with their
/// first publication interval.
struct FollowScratch {
  std::vector<std::int64_t> first_pub;
  std::vector<std::uint32_t> seen;  // slots in first-publication order
};

/// Accumulates follow counts for events [r.begin, r.end) into `local`.
void FollowEventsRange(const engine::Database& db,
                       const CsrSetIndex& index,
                       const std::vector<std::int32_t>& slot, std::size_t n,
                       IndexRange r, FollowScratch& scratch,
                       std::vector<std::uint64_t>& local) {
  const auto src = db.mention_source_id();
  const auto when = db.mention_interval();
  scratch.first_pub.resize(n);
  for (std::size_t e = r.begin; e < r.end; ++e) {
    // Prefilter on the memoized distinct-source list: most events have
    // no subset member at all, so their mention rows are never walked.
    bool any_member = false;
    for (const std::uint32_t s :
         index.ValuesOf(static_cast<std::uint32_t>(e))) {
      if (slot[s] >= 0) {
        any_member = true;
        break;
      }
    }
    if (!any_member) continue;
    const auto rows =
        db.mentions_by_event().RowsOf(static_cast<std::uint32_t>(e));
    if (rows.size() < 2) continue;
    scratch.seen.clear();
    for (const std::uint64_t row : rows) {
      const std::int32_t j = slot[src[row]];
      if (j < 0) continue;
      const IntervalId t = when[row];
      // Count this article once per member that published strictly
      // earlier (including j itself on an earlier article).
      for (const std::uint32_t i : scratch.seen) {
        if (scratch.first_pub[i] < t) {
          ++local[i * n + static_cast<std::size_t>(j)];
        }
      }
      // Record j's first publication time.
      if (std::find(scratch.seen.begin(), scratch.seen.end(),
                    static_cast<std::uint32_t>(j)) == scratch.seen.end()) {
        scratch.seen.push_back(static_cast<std::uint32_t>(j));
        scratch.first_pub[static_cast<std::size_t>(j)] = t;
      }
    }
  }
}

}  // namespace

FollowReportMatrix ComputeFollowReporting(const engine::Database& db,
                                          std::span<const std::uint32_t> subset,
                                          IndexRange events,
                                          const util::CancelToken* cancel) {
  TRACE_SPAN("followreport.compute");
  FollowReportMatrix result;
  result.n = subset.size();
  result.follow_counts.assign(result.n * result.n, 0);
  result.articles.assign(result.n, 0);

  std::vector<std::int32_t> slot(db.num_sources(), -1);
  for (std::size_t k = 0; k < subset.size(); ++k) {
    slot[subset[k]] = static_cast<std::int32_t>(k);
  }
  const auto per_source = engine::ArticlesPerSource(db);
  for (std::size_t k = 0; k < subset.size(); ++k) {
    result.articles[k] = per_source[subset[k]];
  }
  const std::size_t n = result.n;
  events = ClampRange(events, db.num_events());
  if (n == 0 || events.empty()) return result;

  // Built here: a first call from a pool body would build it serially.
  const auto& index = db.event_distinct_sources();
  // Per-slot count matrices merged in slot order: no atomics on the hot
  // path and deterministic output under any scheduling (integer sums
  // commute across morsels).
  const std::size_t slots = parallel::PoolSlots();
  std::vector<std::vector<std::uint64_t>> locals(slots);
  std::vector<FollowScratch> scratch(slots);
  parallel::PoolParallelFor(
      events.size(),
      [&](IndexRange r, std::size_t s) {
        auto& local = locals[s];
        if (local.size() != n * n) local.assign(n * n, 0);
        FollowEventsRange(db, index, slot, n,
                          {events.begin + r.begin, events.begin + r.end},
                          scratch[s], local);
      },
      /*morsel_rows=*/0, cancel);
  parallel::MergeSlotPartials(std::span<std::uint64_t>(result.follow_counts),
                              locals);
  return result;
}

}  // namespace gdelt::analysis
