// CSR-style inverted indexes over columns.
//
// The converter materializes two of these alongside the mentions table:
//   event  -> rows of its mentions (who reported on this event)
//   source -> rows of its mentions (everything a site published)
// They are what make co-reporting and follow-reporting (Section VI-B)
// feasible: both walk "all articles of an event" lists instead of
// re-scanning the full table per pair.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "parallel/morsel.hpp"

namespace gdelt {

/// Rows grouped by a dense u32 key: offsets[k]..offsets[k+1] index into
/// `rows`, which lists the row ids with key k in ascending row order.
/// Row ids and offsets are u32: a table indexed this way has fewer than
/// 2^32 rows (engine::Database::Load refuses a larger mentions table).
struct CsrIndex {
  std::vector<std::uint32_t> offsets;  ///< size num_keys + 1
  std::vector<std::uint32_t> rows;     ///< size = number of input rows

  std::size_t num_keys() const noexcept {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }

  /// Row ids having key k.
  std::span<const std::uint32_t> RowsOf(std::uint32_t k) const noexcept {
    // gdelt-astcheck: allow(view-escape) — a CsrIndex is built once by
    // BuildCsrIndex and never mutated afterwards; rows cannot
    // reallocate under a span a query kernel holds.
    return {rows.data() + offsets[k],
            static_cast<std::size_t>(offsets[k + 1] - offsets[k])};
  }

  /// Group size for key k.
  std::uint64_t CountOf(std::uint32_t k) const noexcept {
    return offsets[k + 1] - offsets[k];
  }

  std::size_t MemoryBytes() const noexcept {
    return (offsets.capacity() + rows.capacity()) * sizeof(std::uint32_t);
  }
};

/// CSR-shaped mapping from a dense u32 key to a *sorted, deduplicated*
/// list of u32 values: values[offsets[k]..offsets[k+1]) are the distinct
/// values of key k in ascending order. This is the shape of the memoized
/// event -> distinct-source index: the per-event sort/dedup that every
/// co-reporting-family query used to redo per invocation is paid once and
/// shared (see engine::Database::event_distinct_sources()).
struct CsrSetIndex {
  std::vector<std::uint32_t> offsets;  ///< size num_keys + 1
  std::vector<std::uint32_t> values;   ///< sorted unique within each key

  std::size_t num_keys() const noexcept {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }

  /// Distinct values of key k, ascending.
  std::span<const std::uint32_t> ValuesOf(std::uint32_t k) const noexcept {
    // gdelt-astcheck: allow(view-escape) — built once (memoized in
    // engine::Database), immutable afterwards; values cannot reallocate
    // under a span a query kernel holds.
    return {values.data() + offsets[k],
            static_cast<std::size_t>(offsets[k + 1] - offsets[k])};
  }

  /// Number of distinct values of key k.
  std::uint64_t CountOf(std::uint32_t k) const noexcept {
    return offsets[k + 1] - offsets[k];
  }

  std::size_t MemoryBytes() const noexcept {
    return (offsets.capacity() + values.capacity()) * sizeof(std::uint32_t);
  }
};

/// Builds a CsrIndex from a key column. `keys[i]` < num_keys for all i and
/// keys.size() < 2^32 (callers guarantee both). Two-pass counting
/// sort; the counting pass runs on the morsel pool, the scatter pass is
/// sequential to keep row order within each key ascending (stability
/// matters for follow-reporting, which relies on time-sorted mention
/// rows).
inline CsrIndex BuildCsrIndex(std::span<const std::uint32_t> keys,
                              std::size_t num_keys) {
  CsrIndex csr;
  std::vector<std::uint64_t> counts = parallel::PoolHistogram(
      {0, keys.size()}, num_keys,
      [&](std::size_t i) -> std::size_t { return keys[i]; });
  // gdelt-astcheck: allow(bounded-alloc) — num_keys comes from the
  // caller's in-memory dictionary, never from a file; ReadFromFile bounds
  // it before any index is built.
  csr.offsets.resize(num_keys + 1);
  std::uint32_t acc = 0;
  for (std::size_t k = 0; k < num_keys; ++k) {
    csr.offsets[k] = acc;
    acc += static_cast<std::uint32_t>(counts[k]);
  }
  csr.offsets[num_keys] = acc;

  // gdelt-astcheck: allow(bounded-alloc) — acc == keys.size() by
  // construction (sum of the histogram over the in-memory key column).
  csr.rows.resize(acc);
  std::vector<std::uint32_t> cursor(csr.offsets.begin(),
                                    csr.offsets.end() - 1);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    csr.rows[cursor[keys[i]]++] = static_cast<std::uint32_t>(i);
  }
  return csr;
}

}  // namespace gdelt
