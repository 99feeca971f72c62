// Index ranges: the partition vocabulary shared by the query kernels,
// the morsel pool (parallel/morsel.hpp) and the shard partials.
//
// The paper parallelizes its heaviest aggregated queries with OpenMP on a
// 64-core / 8-NUMA-node EPYC machine (Section IV, Figure 12). Here every
// parallel loop runs on the morsel pool instead; what stays in this
// header is the range arithmetic those loops and the partition-of-`of`
// kernels share.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace gdelt {

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
