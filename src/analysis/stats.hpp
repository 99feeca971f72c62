// Dataset-level statistics (paper Table I).
#pragma once

#include <cstdint>
#include <string>

#include "analysis/distributions.hpp"
#include "engine/database.hpp"

namespace gdelt::analysis {

/// The general dataset statistics of Table I.
struct DatasetStatistics {
  std::uint64_t sources = 0;
  std::uint64_t events = 0;
  std::uint64_t capture_intervals = 0;  ///< 15-min intervals spanned
  std::uint64_t articles = 0;
  std::uint64_t min_articles_per_event = 0;
  std::uint64_t max_articles_per_event = 0;
  double weighted_avg_articles_per_event = 0.0;

  /// Renders as the two-column table of the paper.
  std::string ToText() const;
};

/// The capture intervals a database's mentions span (0 without mentions).
std::uint64_t CaptureIntervals(const engine::Database& db);

/// Table I from its four table counts, set in `counts`, and the event
/// sizes.
DatasetStatistics ComputeDatasetStatistics(DatasetStatistics counts,
                                           const EventSizes& sizes);

/// Table I of a whole database.
DatasetStatistics ComputeDatasetStatistics(const engine::Database& db);

}  // namespace gdelt::analysis
