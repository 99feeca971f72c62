#include "analysis/distributions.hpp"

#include <algorithm>
#include <cmath>

#include "parallel/morsel.hpp"

namespace gdelt::analysis {

EventSizes EventSizeDistribution(const engine::Database& db,
                                 IndexRange events,
                                 const util::CancelToken* cancel) {
  const auto counts = db.event_article_count();
  events = ClampRange(events, counts.size());
  std::size_t bins = 0;
  for (std::size_t e = events.begin; e < events.end; ++e) {
    bins = std::max<std::size_t>(bins, counts[e] + std::size_t{1});
  }
  const auto dense = parallel::PoolHistogram(
      events, bins, [&](std::size_t e) -> std::size_t { return counts[e]; },
      /*selected=*/nullptr, cancel);
  EventSizes out;
  for (std::size_t x = 0; x < dense.size(); ++x) {
    if (dense[x] != 0) out.emplace_hint(out.end(), x, dense[x]);
  }
  return out;
}

double PowerLawAlpha(const EventSizes& sizes, std::uint64_t xmin) {
  if (xmin == 0) return 0.0;
  double log_sum = 0.0;
  std::uint64_t n = 0;
  for (auto it = sizes.lower_bound(xmin); it != sizes.end(); ++it) {
    const auto [x, count] = *it;
    log_sum += static_cast<double>(count) *
               std::log(static_cast<double>(x) / static_cast<double>(xmin));
    n += count;
  }
  if (n < 2 || log_sum <= 0.0) return 0.0;
  return 1.0 + static_cast<double>(n) / log_sum;
}

double EventSizePowerLawAlpha(const engine::Database& db, std::uint64_t xmin) {
  return PowerLawAlpha(EventSizeDistribution(db), xmin);
}

}  // namespace gdelt::analysis
