#include "analysis/tone.hpp"

#include "parallel/morsel.hpp"

namespace gdelt::analysis {
namespace {

/// Events per accumulation block. A fixed constant, not the pool size or
/// the morsel size, so the float sums are the same at any of those.
constexpr std::size_t kToneBlockEvents = 1024;

/// Generic parallel mean-by-bin over events: one partial per fixed-size
/// block of events (each block is one pool morsel), merged in block
/// order, so the double sums are bitwise reproducible.
template <typename BinFn, typename ValueFn>
std::vector<MeanAccumulator> MeanByBin(const engine::Database& db,
                                       std::size_t bins, BinFn&& bin_of,
                                       ValueFn&& value_of) {
  const std::size_t n = db.num_events();
  std::vector<std::vector<MeanAccumulator>> blocks(
      (n + kToneBlockEvents - 1) / kToneBlockEvents);
  parallel::PoolParallelFor(
      n,
      [&](IndexRange r, std::size_t) {
        auto& local = blocks[r.begin / kToneBlockEvents];
        local.assign(bins, MeanAccumulator{});
        for (std::size_t e = r.begin; e < r.end; ++e) {
          const std::size_t b = bin_of(e);
          if (b >= bins) continue;
          local[b].sum += value_of(e);
          ++local[b].count;
        }
      },
      kToneBlockEvents);
  std::vector<MeanAccumulator> merged(bins);
  for (const auto& local : blocks) {
    for (std::size_t b = 0; b < bins; ++b) {
      merged[b].sum += local[b].sum;
      merged[b].count += local[b].count;
    }
  }
  return merged;
}

}  // namespace

std::vector<MeanAccumulator> AverageToneByCountry(
    const engine::Database& db) {
  const auto country = db.event_country();
  const auto tone = db.events_tone();
  return MeanByBin(
      db, Countries().size(),
      [&](std::size_t e) -> std::size_t {
        return country[e] == kNoCountry ? SIZE_MAX : country[e];
      },
      [&](std::size_t e) { return tone[e]; });
}

QuadClassTone ToneByQuadClass(const engine::Database& db) {
  const auto quad = db.event_quad_class();
  const auto tone = db.events_tone();
  const auto goldstein = db.event_goldstein();
  QuadClassTone result;
  const auto tones = MeanByBin(
      db, 5, [&](std::size_t e) -> std::size_t { return quad[e]; },
      [&](std::size_t e) { return tone[e]; });
  const auto scores = MeanByBin(
      db, 5, [&](std::size_t e) -> std::size_t { return quad[e]; },
      [&](std::size_t e) { return goldstein[e]; });
  for (std::size_t q = 0; q < 5; ++q) {
    result.tone[q] = tones[q];
    result.goldstein[q] = scores[q];
  }
  return result;
}

QuarterlyTone QuarterlyAverageTone(const engine::Database& db) {
  const auto w = engine::QuartersOf(db);
  const auto added = db.event_added_interval();
  const auto tone = db.events_tone();
  QuarterlyTone result;
  result.first_quarter = w.first;
  result.values = MeanByBin(
      db, static_cast<std::size_t>(w.count),
      [&](std::size_t e) { return w.Of(added[e]).value_or(SIZE_MAX); },
      [&](std::size_t e) { return tone[e]; });
  return result;
}

}  // namespace gdelt::analysis
