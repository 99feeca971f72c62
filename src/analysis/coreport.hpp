// Co-reporting analysis (paper Section VI-B).
//
// For sources i, j: e_i = events i reported on, e_ij = events both
// reported on, and the co-reporting factor is the Jaccard index
//     c_ij = e_ij / (e_i + e_j - e_ij).
// Following the paper, the pair counts are accumulated into a dense matrix
// (~1.8 GB for all 21 k real sources; a few MB at our scale) because the
// update count is enormous.
//
// Every kernel below consumes the database's memoized event ->
// distinct-source index (engine::Database::event_distinct_sources()), so
// the per-event sort/dedup is paid once per database, not once per query.
// The kernel is the atomic-free tiled one on the shared morsel pool;
// EXPERIMENTS.md (bench_ablation_coreport_repr) records why it beats
// shared-matrix atomics and per-thread hash maps.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "engine/database.hpp"
#include "engine/filter.hpp"
#include "util/cancel.hpp"

namespace gdelt::analysis {

/// Dense symmetric co-reporting counts over a set of sources.
class CoReportMatrix {
 public:
  /// `n` sources; allocates the n*n count matrix zeroed.
  explicit CoReportMatrix(std::size_t n);

  std::size_t size() const noexcept { return n_; }

  /// Events co-reported by (i, j); e_i on the diagonal.
  std::uint32_t PairCount(std::size_t i, std::size_t j) const noexcept {
    return counts_[i * n_ + j];
  }

  /// Jaccard co-reporting factor c_ij in [0, 1].
  double Jaccard(std::size_t i, std::size_t j) const noexcept {
    const double eij = PairCount(i, j);
    const double denom =
        PairCount(i, i) + PairCount(j, j) - eij;
    return denom <= 0.0 ? 0.0 : eij / denom;
  }

  std::vector<std::uint32_t>& mutable_counts() noexcept { return counts_; }
  const std::vector<std::uint32_t>& counts() const noexcept { return counts_; }

 private:
  std::size_t n_;
  std::vector<std::uint32_t> counts_;
};

/// Tuning knobs for the tiled kernel; the defaults are right for
/// production use — tests lower them to force the large-n sparse path.
struct TiledCoReportOptions {
  /// Ceiling on the total size of per-slot dense partial matrices
  /// (pool slots * n * n * 4 bytes). Below it each pool slot accumulates
  /// into a private dense upper-triangular matrix; above it slots
  /// accumulate sparse (hashed) partials compressed to sorted runs instead.
  std::size_t dense_partials_budget_bytes = std::size_t{512} << 20;
  /// Merge granularity: elements per output tile (dense merge) and the
  /// basis for the row-tile width (sparse merge).
  std::size_t tile_elems = std::size_t{1} << 14;
  /// Cooperative cancellation, polled per morsel. A cancelled run returns
  /// an unspecified partial matrix — the caller must check the token and
  /// discard it (see util/cancel.hpp).
  const util::CancelToken* cancel = nullptr;
};

/// Computes co-reporting over a subset of sources; `subset[k]` is the
/// source id occupying matrix row/col k, and an empty subset gives a 0x0
/// matrix. Only the events in `events` contribute. Counts are integer
/// sums over disjoint per-event contributions, so summing the matrices
/// of a partition of the event axis reproduces the whole-range matrix
/// exactly; the result is mirrored (full symmetric matrix).
///
/// Unrestricted, this is the atomic-free tiled kernel: event morsels on
/// the shared pool with per-slot private accumulation, merged
/// deterministically in tile order (parallel::MergeSlotPartials) — no
/// atomics on the hot path and bitwise-reproducible output at any thread
/// count. With a selection bitmap each event's distinct-source set is
/// rebuilt from only the selected mentions, so time-window / confidence
/// restrictions narrow the pair counts exactly like they narrow the
/// other filtered kernels; orphan mentions are skipped, and a selection
/// of every mention produces the unrestricted counts.
CoReportMatrix ComputeCoReporting(const engine::Database& db,
                                  std::span<const std::uint32_t> subset,
                                  IndexRange events = kWholeRange,
                                  const engine::SelectionBitmap* sel = nullptr,
                                  const TiledCoReportOptions& options = {});

}  // namespace gdelt::analysis
