#include "analysis/coreport.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "parallel/morsel.hpp"
#include "trace/trace.hpp"

namespace gdelt::analysis {
namespace {

/// Maps source id -> matrix slot (-1 = not selected).
std::vector<std::int32_t> SlotMap(const engine::Database& db,
                                  std::span<const std::uint32_t> subset) {
  std::vector<std::int32_t> slot(db.num_sources(), -1);
  for (std::size_t k = 0; k < subset.size(); ++k) {
    slot[subset[k]] = static_cast<std::int32_t>(k);
  }
  return slot;
}

/// Selected matrix slots of the sources reporting event e. The memoized
/// index already holds the distinct sorted source ids, so this is a pure
/// filter-and-map: the result is distinct but, under an arbitrary subset
/// ordering, not necessarily ascending — pair updates use (min, max).
void SelectSlots(const CsrSetIndex& index,
                 const std::vector<std::int32_t>& slot, std::uint32_t e,
                 std::vector<std::uint32_t>& out) {
  out.clear();
  for (const std::uint32_t s : index.ValuesOf(e)) {
    const std::int32_t k = slot[s];
    if (k >= 0) out.push_back(static_cast<std::uint32_t>(k));
  }
}

/// Packs an unordered slot pair into the upper-triangular key i <= j.
inline std::uint64_t UpperKey(std::uint32_t a, std::uint32_t b) noexcept {
  const std::uint32_t i = std::min(a, b);
  const std::uint32_t j = std::max(a, b);
  return static_cast<std::uint64_t>(i) << 32 | j;
}

/// Copies the upper triangle (including diagonal) onto the lower one,
/// about MorselRows() cells per morsel.
void MirrorLowerTriangle(std::uint32_t* counts, std::size_t n) {
  parallel::PoolParallelFor(
      n,
      [&](IndexRange r, std::size_t) {
        for (std::size_t i = r.begin; i < r.end; ++i) {
          for (std::size_t j = 0; j < i; ++j) {
            counts[i * n + j] = counts[j * n + i];
          }
        }
      },
      std::max<std::size_t>(1, parallel::MorselRows() / n));
}

/// Dense pair-count accumulation for events [r.begin, r.end).
void DenseEventsRange(const CsrSetIndex& index,
                      const std::vector<std::int32_t>& slot, std::size_t n,
                      IndexRange r, std::vector<std::uint32_t>& slots,
                      std::vector<std::uint32_t>& local) {
  for (std::size_t e = r.begin; e < r.end; ++e) {
    SelectSlots(index, slot, static_cast<std::uint32_t>(e), slots);
    for (std::size_t a = 0; a < slots.size(); ++a) {
      ++local[static_cast<std::size_t>(slots[a]) * n + slots[a]];
      for (std::size_t b = a + 1; b < slots.size(); ++b) {
        const std::uint64_t key = UpperKey(slots[a], slots[b]);
        ++local[(key >> 32) * n + (key & 0xFFFFFFFFu)];
      }
    }
  }
}

/// Tiled kernel, dense flavor: each pool slot accumulates into a private
/// n*n matrix (upper triangle only), merged deterministically in slot
/// order (integer sums commute, so work stealing cannot change the
/// result).
void TiledDense(const CsrSetIndex& index,
                const std::vector<std::int32_t>& slot, std::size_t n,
                IndexRange events, const TiledCoReportOptions& options,
                CoReportMatrix& matrix) {
  std::vector<std::vector<std::uint32_t>> locals(parallel::PoolSlots());
  {
    TRACE_SPAN("coreport.tiles");
    std::vector<std::vector<std::uint32_t>> scratch(parallel::PoolSlots());
    parallel::PoolParallelFor(
        events.size(),
        [&](IndexRange r, std::size_t s) {
          auto& local = locals[s];
          if (local.size() != n * n) local.assign(n * n, 0);
          DenseEventsRange(index, slot, n,
                           {events.begin + r.begin, events.begin + r.end},
                           scratch[s], local);
        },
        /*morsel_rows=*/0, options.cancel);
  }
  TRACE_SPAN("coreport.merge");
  parallel::MergeSlotPartials(
      std::span<std::uint32_t>(matrix.mutable_counts()), locals,
      options.tile_elems);
}

/// Tiled kernel, sparse flavor for large n: per-slot hash accumulation
/// compressed to key-sorted runs, then merged into the dense result by
/// disjoint row tiles — each tile is written by exactly one task, runs are
/// visited in slot order, so the merge is atomic-free and deterministic.
void TiledSparse(const CsrSetIndex& index,
                 const std::vector<std::int32_t>& slot, std::size_t n,
                 IndexRange events, const TiledCoReportOptions& options,
                 CoReportMatrix& matrix) {
  using Run = std::vector<std::pair<std::uint64_t, std::uint32_t>>;
  std::vector<std::unordered_map<std::uint64_t, std::uint32_t>> accs(
      parallel::PoolSlots());
  std::vector<std::vector<std::uint32_t>> scratch(parallel::PoolSlots());
  parallel::PoolParallelFor(
      events.size(),
      [&](IndexRange r, std::size_t s) {
        auto& acc = accs[s];
        auto& slots = scratch[s];
        for (std::size_t e = events.begin + r.begin;
             e < events.begin + r.end; ++e) {
          SelectSlots(index, slot, static_cast<std::uint32_t>(e), slots);
          for (std::size_t a = 0; a < slots.size(); ++a) {
            ++acc[UpperKey(slots[a], slots[a])];
            for (std::size_t b = a + 1; b < slots.size(); ++b) {
              ++acc[UpperKey(slots[a], slots[b])];
            }
          }
        }
      },
      /*morsel_rows=*/0, options.cancel);
  std::vector<Run> runs(accs.size());
  parallel::PoolParallelFor(
      accs.size(),
      [&](IndexRange r, std::size_t) {
        for (std::size_t p = r.begin; p < r.end; ++p) {
          runs[p].assign(accs[p].begin(), accs[p].end());
          std::sort(runs[p].begin(), runs[p].end());
        }
      },
      /*morsel_rows=*/1, options.cancel);

  auto* counts = matrix.mutable_counts().data();
  const std::size_t tile_rows =
      std::max<std::size_t>(1, options.tile_elems / std::max<std::size_t>(n, 1));
  const std::size_t num_tiles = (n + tile_rows - 1) / tile_rows;
  parallel::PoolParallelFor(
      num_tiles,
      [&](IndexRange r, std::size_t) {
        for (std::size_t t = r.begin; t < r.end; ++t) {
          const std::uint64_t row_begin = t * tile_rows;
          const std::uint64_t row_end =
              std::min<std::uint64_t>(n, row_begin + tile_rows);
          const std::uint64_t key_begin = row_begin << 32;
          const std::uint64_t key_end = row_end << 32;
          for (const Run& run : runs) {
            auto it = std::lower_bound(run.begin(), run.end(), key_begin,
                                       [](const auto& entry, std::uint64_t key) {
                                         return entry.first < key;
                                       });
            for (; it != run.end() && it->first < key_end; ++it) {
              counts[(it->first >> 32) * n + (it->first & 0xFFFFFFFFu)] +=
                  it->second;
            }
          }
        }
      },
      /*morsel_rows=*/1, options.cancel);
}

/// The restricted flavor: pair counts over the selected mention `rows`
/// whose event lies in `events`. The memoized index covers every
/// mention, so each event's distinct-source set is rebuilt from the
/// selected rows: distinct (event, slot) pairs, sorted, then counted per
/// event group into the upper triangle.
void FilteredEvents(const engine::Database& db,
                    const std::vector<std::int32_t>& slot, std::size_t n,
                    IndexRange events, std::span<const std::uint64_t> rows,
                    const util::CancelToken* cancel, CoReportMatrix& matrix) {
  TRACE_SPAN("coreport.compute.filtered");
  const auto event_row = db.mention_event_row();
  const auto src = db.mention_source_id();
  std::vector<std::uint64_t> pairs;
  pairs.reserve(rows.size());
  for (const std::uint64_t i : rows) {
    const std::uint32_t e = event_row[i];
    // Orphan rows (kOrphanEventRow) lie past every event range.
    if (e < events.begin || e >= events.end) continue;
    const std::int32_t k = slot[src[i]];
    if (k < 0) continue;
    pairs.push_back(static_cast<std::uint64_t>(e) << 32 |
                    static_cast<std::uint32_t>(k));
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

  auto& counts = matrix.mutable_counts();
  std::size_t groups = 0;
  for (std::size_t a = 0; a < pairs.size();) {
    if ((groups++ & 255) == 0 && util::Cancelled(cancel)) break;
    const std::uint64_t ev = pairs[a] >> 32;
    std::size_t b = a;
    while (b < pairs.size() && (pairs[b] >> 32) == ev) ++b;
    for (std::size_t x = a; x < b; ++x) {
      const auto sx = static_cast<std::uint32_t>(pairs[x]);
      ++counts[static_cast<std::size_t>(sx) * n + sx];
      for (std::size_t y = x + 1; y < b; ++y) {
        const std::uint64_t key =
            UpperKey(sx, static_cast<std::uint32_t>(pairs[y]));
        ++counts[(key >> 32) * n + (key & 0xFFFFFFFFu)];
      }
    }
    a = b;
  }
}

}  // namespace

CoReportMatrix::CoReportMatrix(std::size_t n) : n_(n), counts_(n * n, 0) {}

CoReportMatrix ComputeCoReporting(const engine::Database& db,
                                  std::span<const std::uint32_t> subset,
                                  IndexRange events,
                                  const engine::SelectionBitmap* sel,
                                  const TiledCoReportOptions& options) {
  TRACE_SPAN("coreport.compute");
  const std::size_t n = subset.size();
  CoReportMatrix matrix(n);
  events = ClampRange(events, db.num_events());
  if (n == 0 || events.empty()) return matrix;
  const auto slot = SlotMap(db, subset);
  if (sel != nullptr) {
    FilteredEvents(db, slot, n, events, sel->ToRows(), options.cancel,
                   matrix);
  } else {
    const auto& index = [&]() -> decltype(db.event_distinct_sources()) {
      TRACE_SPAN("coreport.index");
      return db.event_distinct_sources();
    }();
    // One partial per pool slot (workers + callers): that footprint
    // drives the dense/sparse cut.
    const std::size_t dense_bytes =
        parallel::PoolSlots() * n * n * sizeof(std::uint32_t);
    if (dense_bytes <= options.dense_partials_budget_bytes) {
      TiledDense(index, slot, n, events, options, matrix);
    } else {
      TiledSparse(index, slot, n, events, options, matrix);
    }
  }
  MirrorLowerTriangle(matrix.mutable_counts().data(), n);
  return matrix;
}

}  // namespace gdelt::analysis
