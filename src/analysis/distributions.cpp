#include "analysis/distributions.hpp"

#include <cmath>

#include "parallel/morsel.hpp"

namespace gdelt::analysis {

std::vector<std::uint64_t> EventSizeDistribution(const engine::Database& db) {
  const auto counts = db.event_article_count();
  std::uint32_t max_count = 0;
  for (const std::uint32_t c : counts) max_count = std::max(max_count, c);
  return parallel::PoolHistogram(
      {0, counts.size()}, max_count + 1,
      [&](std::size_t e) -> std::size_t { return counts[e]; });
}

double PowerLawAlphaMle(std::span<const std::uint64_t> samples,
                        std::uint64_t xmin) {
  if (xmin == 0) return 0.0;
  double log_sum = 0.0;
  std::uint64_t n = 0;
  for (const std::uint64_t x : samples) {
    if (x < xmin) continue;
    log_sum += std::log(static_cast<double>(x) / static_cast<double>(xmin));
    ++n;
  }
  if (n < 2 || log_sum <= 0.0) return 0.0;
  return 1.0 + static_cast<double>(n) / log_sum;
}

double EventSizePowerLawAlpha(const engine::Database& db, std::uint64_t xmin) {
  const auto counts = db.event_article_count();
  std::vector<std::uint64_t> samples;
  samples.reserve(counts.size());
  for (const std::uint32_t c : counts) samples.push_back(c);
  return PowerLawAlphaMle(samples, xmin);
}

double AverageArticlesPerEvent(const engine::Database& db) {
  return db.num_events() == 0
             ? 0.0
             : static_cast<double>(db.num_mentions()) /
                   static_cast<double>(db.num_events());
}

}  // namespace gdelt::analysis
