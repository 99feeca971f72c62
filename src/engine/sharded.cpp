#include "engine/sharded.hpp"

#include <algorithm>

#include "convert/binary_format.hpp"
#include "parallel/parallel.hpp"

namespace gdelt::engine {

std::vector<Shard> MakeTimeShards(const Database& db,
                                  std::size_t num_shards) {
  const auto ranges = SplitRange(db.num_mentions(), num_shards);
  std::vector<Shard> shards;
  shards.reserve(ranges.size());
  for (const auto& r : ranges) {
    shards.push_back({r.begin, r.end});
  }
  return shards;
}

CrossReportPartial CrossReportingOnShard(const Database& db,
                                         const Shard& shard,
                                         const util::CancelToken* cancel) {
  const std::size_t nc = Countries().size();
  const auto event_row = db.mention_event_row();
  const auto src = db.mention_source_id();
  const auto event_country = db.event_country();
  const auto source_country = db.source_country();

  CrossReportPartial partial;
  partial.counts.assign(nc * nc, 0);
  partial.articles_per_publisher.assign(nc, 0);
  for (std::uint64_t i = shard.begin; i < shard.end; ++i) {
    if ((i & 4095) == 0 && util::Cancelled(cancel)) break;
    const std::uint16_t pub = source_country[src[i]];
    if (pub == kNoCountry) continue;
    const std::uint32_t row = event_row[i];
    const std::uint16_t rep = row == convert::kOrphanEventRow
                                  ? kNoCountry
                                  : event_country[row];
    if (rep == kNoCountry) {
      ++partial.articles_per_publisher[pub];
    } else {
      ++partial.counts[static_cast<std::size_t>(rep) * nc + pub];
    }
  }
  return partial;
}

CrossReportPartial CrossReportingOnShard(const Database& db,
                                         const Shard& shard,
                                         const SelectionBitmap& sel,
                                         const util::CancelToken* cancel) {
  const std::size_t nc = Countries().size();
  const auto event_row = db.mention_event_row();
  const auto src = db.mention_source_id();
  const auto event_country = db.event_country();
  const auto source_country = db.source_country();

  CrossReportPartial partial;
  partial.counts.assign(nc * nc, 0);
  partial.articles_per_publisher.assign(nc, 0);
  const IndexRange span = sel.RowSpan();
  const std::uint64_t end = std::min<std::uint64_t>(shard.end, span.end);
  for (std::uint64_t i = std::max<std::uint64_t>(shard.begin, span.begin);
       i < end; ++i) {
    if ((i & 4095) == 0 && util::Cancelled(cancel)) break;
    if (!sel.Test(i)) continue;
    const std::uint16_t pub = source_country[src[i]];
    if (pub == kNoCountry) continue;
    const std::uint32_t row = event_row[i];
    const std::uint16_t rep = row == convert::kOrphanEventRow
                                  ? kNoCountry
                                  : event_country[row];
    if (rep == kNoCountry) {
      ++partial.articles_per_publisher[pub];
    } else {
      ++partial.counts[static_cast<std::size_t>(rep) * nc + pub];
    }
  }
  return partial;
}

}  // namespace gdelt::engine
