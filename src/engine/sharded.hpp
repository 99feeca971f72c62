// Time shards of the mentions table — the partition the paper's planned
// distributed-memory (MPI) extension would place on separate ranks
// (Section VII).
//
// The mentions table is range-partitioned into contiguous shards (capture
// order == time order, so these are time shards). The serve layer's
// partial frames (serve/partial.hpp) compute one shard's aggregate per
// request and the router reduces them; partial_merge_test asserts the
// reduction is bit-identical to the single-node kernels.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/database.hpp"
#include "engine/filter.hpp"
#include "engine/queries.hpp"
#include "util/cancel.hpp"

namespace gdelt::engine {

/// A contiguous range of mention rows processed as one shard.
struct Shard {
  std::uint64_t begin = 0;  ///< first mention row
  std::uint64_t end = 0;    ///< one past the last mention row
};

/// Splits the database's mentions into `num_shards` near-equal contiguous
/// row ranges (time ranges, since rows are in capture order).
std::vector<Shard> MakeTimeShards(const Database& db, std::size_t num_shards);

/// Per-shard partial of the country cross-reporting aggregate.
struct CrossReportPartial {
  std::vector<std::uint64_t> counts;              ///< nc * nc
  std::vector<std::uint64_t> articles_per_publisher;  ///< nc (untagged only)
};

/// Computes one shard's partial (what a single MPI rank would do).
/// `cancel` is polled per row chunk; a cancelled partial is garbage and
/// must be discarded by the caller (util/cancel.hpp semantics).
CrossReportPartial CrossReportingOnShard(const Database& db,
                                         const Shard& shard,
                                         const util::CancelToken* cancel =
                                             nullptr);

/// Filtered flavor for the router's restricted cross-report partials:
/// only rows selected by `sel` contribute. The binning matches the
/// filtered single-node kernel (CountryCrossReporting(db, sel)) exactly,
/// so reducing the partials of a row-range partition reproduces it.
CrossReportPartial CrossReportingOnShard(const Database& db,
                                         const Shard& shard,
                                         const SelectionBitmap& sel,
                                         const util::CancelToken* cancel =
                                             nullptr);

}  // namespace gdelt::engine
