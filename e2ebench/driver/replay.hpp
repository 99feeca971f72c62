// The traced per-layer replay: each workload's request sequence pushed
// in-process through the layers' public functions, one timed call at a
// time, so every layer gets its own number without touching src/.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "engine/database.hpp"
#include "workloads.hpp"

namespace e2e {

/// Metric name -> (value, unit).
using Metrics = std::map<std::string, std::pair<double, std::string>>;

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty set.
double Quantile(std::vector<double> v, double q);

/// Per-stage sums of traced responses (`"trace":{"stages":[...]}`).
struct StageTotals {
  std::map<std::string, std::pair<double, std::uint64_t>> stage;  ///< sum, n
  std::pair<double, std::uint64_t> queue_wait[2];  ///< [0] interactive, [1] batch

  void Add(const std::string& response_line, bool batch_lane);
  void Merge(const StageTotals& other);
  /// server.stage.*_ms and scheduler.queue_wait.*_ms (means).
  void Report(Metrics& out) const;
};

/// Runs every in-process layer probe over the plans of one seed and
/// returns the per-layer metrics. `stages` receives the stage split of the
/// analyst sub-requests as answered by an in-process shard. Any output
/// that disagrees with the single-node renderer is counted in `failed`.
Metrics ReplayLayers(const gdelt::engine::Database& db, const Plan& analyst,
                     const Plan& dashboard, StageTotals& stages,
                     std::uint64_t& failed);

}  // namespace e2e
