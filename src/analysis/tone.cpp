#include "analysis/tone.hpp"

#include <algorithm>
#include <numeric>

#include "parallel/morsel.hpp"

namespace gdelt::analysis {

std::size_t NumToneBins() noexcept {
  return CountryToneBin(static_cast<CountryId>(Countries().size()));
}

std::size_t NumToneBlocks(const engine::Database& db) noexcept {
  return (db.num_events() + kToneBlockEvents - 1) / kToneBlockEvents;
}

std::vector<ToneEntry> ComputeToneBlocks(const engine::Database& db,
                                         IndexRange blocks,
                                         std::span<const CountryId> countries,
                                         const util::CancelToken* cancel) {
  const std::size_t n = db.num_events();
  const std::size_t bins = NumToneBins();
  const std::size_t num_countries = Countries().size();
  blocks = ClampRange(blocks, NumToneBlocks(db));
  const auto quad = db.event_quad_class();
  const auto country = db.event_country();
  const auto tone = db.events_tone();
  const auto goldstein = db.event_goldstein();
  std::vector<bool> kept(bins, false);
  std::fill_n(kept.begin(), CountryToneBin(0), true);
  for (const CountryId c : countries) kept[CountryToneBin(c)] = true;

  std::vector<std::vector<ToneEntry>> per_block(blocks.size());
  std::vector<std::vector<MeanAccumulator>> scratch(parallel::PoolSlots());
  const auto add = [](MeanAccumulator& acc, double v) {
    acc.sum += v;
    ++acc.count;
  };
  parallel::PoolParallelFor(
      blocks.size(),
      [&](IndexRange r, std::size_t slot) {
        auto& acc = scratch[slot];
        for (std::size_t k = r.begin; k < r.end; ++k) {
          // Bin `bins` takes the events without a country. The values are
          // read into locals first: the u8 quad column may alias anything.
          acc.assign(bins + 1, MeanAccumulator{});
          MeanAccumulator* a = acc.data();
          const std::size_t first = (blocks.begin + k) * kToneBlockEvents;
          const std::size_t last = std::min(n, first + kToneBlockEvents);
          for (std::size_t e = first; e < last; ++e) {
            const std::size_t q = quad[e];
            const CountryId c = country[e];
            const double t = tone[e];
            if (q >= 1 && q <= 4) {
              add(a[QuadToneBin(q)], t);
              add(a[QuadGoldsteinBin(q)], goldstein[e]);
            }
            add(a[c < num_countries ? CountryToneBin(c) : bins], t);
          }
          for (std::size_t b = 0; b < bins; ++b) {
            if (kept[b] && acc[b].count > 0) {
              per_block[k].push_back({blocks.begin + k, b, acc[b]});
            }
          }
        }
      },
      /*morsel_rows=*/1, cancel);
  std::vector<ToneEntry> out;
  for (const auto& entries : per_block) {
    out.insert(out.end(), entries.begin(), entries.end());
  }
  return out;
}

std::vector<MeanAccumulator> MergeToneBlocks(std::vector<ToneEntry> entries) {
  const auto by_block = [](const ToneEntry& a, const ToneEntry& b) {
    return a.block < b.block;
  };
  if (!std::is_sorted(entries.begin(), entries.end(), by_block)) {
    std::stable_sort(entries.begin(), entries.end(), by_block);
  }
  std::vector<MeanAccumulator> merged(NumToneBins());
  for (const ToneEntry& e : entries) {
    merged[e.bin].sum += e.acc.sum;
    merged[e.bin].count += e.acc.count;
  }
  return merged;
}

std::vector<MeanAccumulator> ToneByBin(const engine::Database& db) {
  std::vector<CountryId> every(Countries().size());
  std::iota(every.begin(), every.end(), CountryId{0});
  return MergeToneBlocks(
      ComputeToneBlocks(db, {0, NumToneBlocks(db)}, every));
}

}  // namespace gdelt::analysis
