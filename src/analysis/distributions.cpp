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

namespace {

double AlphaFromLogSum(double log_sum, std::uint64_t n) {
  if (n < 2 || log_sum <= 0.0) return 0.0;
  return 1.0 + static_cast<double>(n) / log_sum;
}

}  // namespace

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
  return AlphaFromLogSum(log_sum, n);
}

double EventSizePowerLawAlpha(const engine::Database& db, std::uint64_t xmin) {
  if (xmin == 0) return 0.0;
  // ln(x / xmin) is tabulated once per size below kTabulatedSizes (the
  // largest event on `medium` has 1,394 articles), and 0 below xmin; a
  // larger size calls std::log itself. The terms are the ones
  // PowerLawAlphaMle computes, summed in the same (event) order, and
  // adding +0 for a skipped event leaves the sum's bits unchanged (it is
  // never -0), so the result is the same bits without a branch per event.
  constexpr std::uint64_t kTabulatedSizes = 2048;
  const double denominator = static_cast<double>(xmin);
  std::vector<double> log_ratio(kTabulatedSizes, 0.0);
  for (std::uint64_t x = xmin; x < kTabulatedSizes; ++x) {
    log_ratio[x] = std::log(static_cast<double>(x) / denominator);
  }
  double log_sum = 0.0;
  std::uint64_t n = 0;
  for (const std::uint32_t x : db.event_article_count()) {
    n += x >= xmin ? 1 : 0;
    if (x < kTabulatedSizes) {
      log_sum += log_ratio[x];
    } else if (x >= xmin) {
      log_sum += std::log(static_cast<double>(x) / denominator);
    }
  }
  return AlphaFromLogSum(log_sum, n);
}

double AverageArticlesPerEvent(const engine::Database& db) {
  return db.num_events() == 0
             ? 0.0
             : static_cast<double>(db.num_mentions()) /
                   static_cast<double>(db.num_events());
}

}  // namespace gdelt::analysis
