// Tone and Goldstein-scale analytics over the Events table.
//
// GDELT codes every event with an average document tone and a Goldstein
// conflict-cooperation score. The paper's engine focuses on volume and
// timing, but tone is the database's most-used derived signal; these
// aggregations round the engine out (and exercise the f64 columns of the
// binary store). The double sums add each block of kToneBlockEvents
// events in event order, then the blocks in block order, at any pool
// size and for any partition that owns whole blocks.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "engine/database.hpp"
#include "util/cancel.hpp"

namespace gdelt::analysis {

/// Mean/count pair for incremental aggregation.
struct MeanAccumulator {
  double sum = 0.0;
  std::uint64_t count = 0;

  double Mean() const noexcept {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

inline constexpr std::size_t kToneBlockEvents = 1024;

/// The bins: the tone and the Goldstein score of CAMEO quad class q
/// (1..4), and the tone of located country c.
constexpr std::size_t QuadToneBin(std::size_t q) { return q - 1; }
constexpr std::size_t QuadGoldsteinBin(std::size_t q) { return q + 3; }
constexpr std::size_t CountryToneBin(CountryId c) { return 8 + c; }
std::size_t NumToneBins() noexcept;

std::size_t NumToneBlocks(const engine::Database& db) noexcept;

/// One block's sum over one bin.
struct ToneEntry {
  std::uint64_t block;
  std::uint64_t bin;
  MeanAccumulator acc;
};

/// The non-empty entries of the blocks in `blocks`, in block then bin
/// order: the quad-class bins and the bins of `countries`.
std::vector<ToneEntry> ComputeToneBlocks(
    const engine::Database& db, IndexRange blocks,
    std::span<const CountryId> countries,
    const util::CancelToken* cancel = nullptr);

/// Every bin's accumulator: its entries, in any order, added in block
/// order. Each bin must be < NumToneBins().
std::vector<MeanAccumulator> MergeToneBlocks(std::vector<ToneEntry> entries);

/// Every bin's accumulator over the whole Events table.
std::vector<MeanAccumulator> ToneByBin(const engine::Database& db);

}  // namespace gdelt::analysis
