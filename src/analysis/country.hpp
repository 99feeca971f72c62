// Country-level analyses (paper Sections VI-C and VI-D).
//
// Co-reporting between countries (Table V): Jaccard over the sets of
// events that each country's press reported on. A country "reports" an
// event when any source attributed to it (by TLD) published an article.
//
// Cross-reporting (Tables VI/VII, Fig 8) lives in engine/queries.hpp as
// the headline aggregated query; this header adds the Jaccard analysis.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/database.hpp"
#include "parallel/parallel.hpp"
#include "util/cancel.hpp"

namespace gdelt::analysis {

/// Country-by-country co-reporting counts.
struct CountryCoReport {
  std::size_t n = 0;                       ///< number of countries
  std::vector<std::uint64_t> pair_counts;  ///< e_cd (dense n*n, symmetric)

  std::uint64_t Pair(std::size_t c, std::size_t d) const noexcept {
    return pair_counts[c * n + d];
  }
  /// e_c: events reported by c (the diagonal).
  std::uint64_t EventCount(std::size_t c) const noexcept { return Pair(c, c); }
  /// Jaccard co-reporting factor between countries c and d.
  double Jaccard(std::size_t c, std::size_t d) const noexcept {
    const double e_cd = static_cast<double>(Pair(c, d));
    const double denom = static_cast<double>(EventCount(c)) +
                         static_cast<double>(EventCount(d)) - e_cd;
    return denom <= 0.0 ? 0.0 : e_cd / denom;
  }
};

/// Computes country co-reporting over the events in `events`. Parallel
/// over events on the morsel pool, which polls `cancel`; each event's
/// publisher-country set is packed into a 64-bit mask (the registry is
/// <= 64 countries by design). Summing pair_counts over a partition of
/// the event axis reproduces the whole-range counts exactly.
CountryCoReport ComputeCountryCoReporting(
    const engine::Database& db, IndexRange events = kWholeRange,
    const util::CancelToken* cancel = nullptr);

}  // namespace gdelt::analysis
