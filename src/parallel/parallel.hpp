// OpenMP-based parallel primitives used by the query engine.
//
// The paper's system parallelizes its heaviest aggregated queries with
// OpenMP on a 64-core / 8-NUMA-node EPYC machine (Section IV, Figure 12).
// These wrappers centralize the chunking, reduction and scratch-space
// patterns so query kernels stay free of raw pragmas, and they keep all
// results deterministic: reductions combine per-thread partials in thread
// order, independent of scheduling.
#pragma once

#include <omp.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace gdelt {

/// Number of worker threads a parallel region will use.
inline int MaxThreads() noexcept { return omp_get_max_threads(); }

/// Caps the number of OpenMP threads for subsequent regions.
inline void SetThreads(int n) noexcept { omp_set_num_threads(n); }

/// A half-open index range [begin, end).
struct IndexRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t size() const noexcept { return end - begin; }
  bool empty() const noexcept { return begin >= end; }
};

/// The whole of an axis. Kernels that take a partition of an axis clamp
/// it to the axis length, so this default means "every index".
inline constexpr IndexRange kWholeRange{0, SIZE_MAX};

/// `r` clamped to [0, n).
inline IndexRange ClampRange(IndexRange r, std::size_t n) noexcept {
  return {std::min(r.begin, n), std::min(r.end, n)};
}

/// Splits [0, n) into at most `parts` contiguous near-equal ranges.
/// The first (n % parts) ranges get one extra element.
inline std::vector<IndexRange> SplitRange(std::size_t n, std::size_t parts) {
  parts = std::max<std::size_t>(1, std::min(parts, std::max<std::size_t>(n, 1)));
  std::vector<IndexRange> out(parts);
  const std::size_t base = n / parts;
  const std::size_t extra = n % parts;
  std::size_t at = 0;
  for (std::size_t p = 0; p < parts; ++p) {
    const std::size_t len = base + (p < extra ? 1 : 0);
    out[p] = {at, at + len};
    at += len;
  }
  return out;
}

/// Scheduling policy for ParallelFor; mirrors omp schedule kinds.
/// kDynamic balances skewed per-index work.
enum class Schedule { kStatic, kDynamic };

/// Runs body(i) for each i in [0, n) across all threads.
template <typename Body>
void ParallelFor(std::size_t n, Body&& body, Schedule kind = Schedule::kStatic) {
  const auto sn = static_cast<std::int64_t>(n);
  if (kind == Schedule::kDynamic) {
#pragma omp parallel for schedule(dynamic, 64)
    for (std::int64_t i = 0; i < sn; ++i) body(static_cast<std::size_t>(i));
    return;
  }
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < sn; ++i) body(static_cast<std::size_t>(i));
}

/// Runs body(range, thread_id) once per thread over a contiguous chunk of
/// [0, n). Useful when the body wants per-thread scratch state.
template <typename Body>
void ParallelForChunks(std::size_t n, Body&& body) {
#pragma omp parallel
  {
    const int tid = omp_get_thread_num();
    const int nt = omp_get_num_threads();
    const auto ranges = SplitRange(n, static_cast<std::size_t>(nt));
    if (static_cast<std::size_t>(tid) < ranges.size()) {
      body(ranges[static_cast<std::size_t>(tid)], tid);
    }
  }
}

/// Parallel reduction: acc = combine(acc, map(i)) over i in [0, n).
/// `identity` seeds each thread-local accumulator; thread partials are
/// combined in thread order so the result is reproducible run-to-run.
template <typename T, typename Map, typename Combine>
T ParallelReduce(std::size_t n, T identity, Map&& map, Combine&& combine) {
  std::vector<T> partials(static_cast<std::size_t>(MaxThreads()), identity);
#pragma omp parallel
  {
    const int tid = omp_get_thread_num();
    T local = identity;
#pragma omp for schedule(static) nowait
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(n); ++i) {
      local = combine(std::move(local), map(static_cast<std::size_t>(i)));
    }
    partials[static_cast<std::size_t>(tid)] = std::move(local);
  }
  T result = identity;
  for (auto& p : partials) result = combine(std::move(result), std::move(p));
  return result;
}

/// Parallel sum of map(i) over [0, n) for arithmetic T.
template <typename T, typename Map>
T ParallelSum(std::size_t n, Map&& map) {
  return ParallelReduce<T>(
      n, T{}, map, [](T a, T b) { return a + b; });
}

/// Parallel histogram: for each i in `range`, `binner(i)` yields a bin
/// index < num_bins (or SIZE_MAX to skip). Per-thread local histograms are
/// merged at the end — no atomics on the hot path.
template <typename Binner>
std::vector<std::uint64_t> ParallelHistogram(IndexRange range,
                                             std::size_t num_bins,
                                             Binner&& binner) {
  const auto begin = static_cast<std::int64_t>(range.begin);
  const auto end = static_cast<std::int64_t>(range.end);
  const auto nt = static_cast<std::size_t>(MaxThreads());
  std::vector<std::vector<std::uint64_t>> locals(nt);
#pragma omp parallel
  {
    const auto tid = static_cast<std::size_t>(omp_get_thread_num());
    auto& local = locals[tid];
    local.assign(num_bins, 0);
#pragma omp for schedule(static) nowait
    for (std::int64_t i = begin; i < end; ++i) {
      const std::size_t bin = binner(static_cast<std::size_t>(i));
      if (bin < num_bins) ++local[bin];
    }
  }
  std::vector<std::uint64_t> merged(num_bins, 0);
  for (const auto& local : locals) {
    if (local.size() != num_bins) continue;  // thread never entered region
    for (std::size_t b = 0; b < num_bins; ++b) merged[b] += local[b];
  }
  return merged;
}

/// The same histogram over [0, n).
template <typename Binner>
std::vector<std::uint64_t> ParallelHistogram(std::size_t n,
                                             std::size_t num_bins,
                                             Binner&& binner) {
  return ParallelHistogram(IndexRange{0, n}, num_bins,
                           std::forward<Binner>(binner));
}

/// Deterministic tiled merge of per-thread partial arrays:
///     out[i] += sum over t (in thread order) of partials[t][i]
/// parallelized over contiguous tiles of the output. Because every tile is
/// owned by exactly one task and thread partials are combined in a fixed
/// order within it, the result is bitwise reproducible run-to-run for any
/// element type (including floating point) and any schedule. Partials
/// shorter than `out` (threads that never entered the region) are skipped.
template <typename T>
void MergeTiledPartials(std::span<T> out,
                        const std::vector<std::vector<T>>& partials,
                        std::size_t tile_elems = 16384) {
  const std::size_t n = out.size();
  if (n == 0) return;
  tile_elems = std::max<std::size_t>(1, tile_elems);
  const std::size_t num_tiles = (n + tile_elems - 1) / tile_elems;
#pragma omp parallel for schedule(static)
  for (std::int64_t t = 0; t < static_cast<std::int64_t>(num_tiles); ++t) {
    const std::size_t begin = static_cast<std::size_t>(t) * tile_elems;
    const std::size_t end = std::min(n, begin + tile_elems);
    for (const auto& local : partials) {
      if (local.size() < n) continue;
      for (std::size_t i = begin; i < end; ++i) out[i] += local[i];
    }
  }
}

/// Exclusive prefix sum in place; returns the total.
template <typename T>
T ExclusivePrefixSum(std::vector<T>& v) {
  T acc{};
  for (auto& x : v) {
    const T next = acc + x;
    x = acc;
    acc = next;
  }
  return acc;
}

}  // namespace gdelt
