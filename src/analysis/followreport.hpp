// Follow-reporting analysis (paper Section VI-B, Table IV, Fig 7).
//
// f_ij = n_ij / n_j, where n_ij counts articles by site j on events that
// site i published about in an earlier capture interval, and n_j is the
// total number of articles j published. The diagonal counts follow-ups on
// a site's own earlier reporting.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "engine/database.hpp"
#include "parallel/parallel.hpp"
#include "util/cancel.hpp"

namespace gdelt::analysis {

/// Follow-reporting counts over an ordered subset of sources.
struct FollowReportMatrix {
  std::size_t n = 0;
  /// n_ij (first publisher i = row, follow-up publisher j = column).
  std::vector<std::uint64_t> follow_counts;
  /// n_j: total articles by each subset member across the whole dataset.
  std::vector<std::uint64_t> articles;

  std::uint64_t FollowCount(std::size_t i, std::size_t j) const noexcept {
    return follow_counts[i * n + j];
  }
  /// f_ij in [0, 1].
  double F(std::size_t i, std::size_t j) const noexcept {
    return articles[j] == 0 ? 0.0
                            : static_cast<double>(FollowCount(i, j)) /
                                  static_cast<double>(articles[j]);
  }
  /// Column sum of f (the "Sum" row of Table IV): fraction of j's articles
  /// that follow any subset member (multi-counted per leader, as in the
  /// paper where values can approach the number of leaders).
  double ColumnSum(std::size_t j) const noexcept {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) sum += F(i, j);
    return sum;
  }
};

/// Computes follow-reporting over `subset` (matrix order = subset order).
/// An article counts as following i if i published on the same event in a
/// strictly earlier capture interval. Only the events in `events`
/// contribute follow counts; `articles` is always the whole-dataset
/// per-source total. Summing the follow_counts of a partition of the
/// event axis reproduces the whole-range matrix exactly. Partial count
/// matrices are merged in scratch-slot order, so the result is bitwise
/// identical at any morsel size and thread count.
FollowReportMatrix ComputeFollowReporting(
    const engine::Database& db, std::span<const std::uint32_t> subset,
    IndexRange events = kWholeRange,
    const util::CancelToken* cancel = nullptr);

}  // namespace gdelt::analysis
