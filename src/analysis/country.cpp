#include "analysis/country.hpp"

#include <bit>

#include "parallel/morsel.hpp"
#include "trace/trace.hpp"

namespace gdelt::analysis {

CountryCoReport ComputeCountryCoReporting(const engine::Database& db,
                                          IndexRange events,
                                          const util::CancelToken* cancel) {
  TRACE_SPAN("country.coreport");
  const std::size_t nc = Countries().size();
  // The 64-bit mask kernel requires the registry to fit one word.
  if (nc > 64) std::abort();
  events = ClampRange(events, db.num_events());

  const auto src = db.mention_source_id();
  const auto source_country = db.source_country();

  // Pass 1: publisher-country mask per event (disjoint writes).
  std::vector<std::uint64_t> masks(events.size(), 0);
  parallel::PoolParallelFor(
      events.size(),
      [&](IndexRange r, std::size_t) {
        for (std::size_t k = r.begin; k < r.end; ++k) {
          std::uint64_t mask = 0;
          for (const std::uint64_t row : db.mentions_by_event().RowsOf(
                   static_cast<std::uint32_t>(events.begin + k))) {
            const std::uint16_t c = source_country[src[row]];
            if (c != kNoCountry) mask |= 1ull << c;
          }
          masks[k] = mask;
        }
      },
      /*morsel_rows=*/0, cancel);

  // Pass 2: accumulate e_c (diagonal) and e_cd (upper triangle) from the
  // masks with per-slot partials.
  CountryCoReport report;
  report.n = nc;
  report.pair_counts.assign(nc * nc, 0);

  std::vector<std::vector<std::uint64_t>> local_pairs(parallel::PoolSlots());
  parallel::PoolParallelFor(
      masks.size(),
      [&](IndexRange r, std::size_t slot) {
        auto& local = local_pairs[slot];
        if (local.empty()) local.assign(nc * nc, 0);
        for (std::size_t e = r.begin; e < r.end; ++e) {
          std::uint64_t m1 = masks[e];
          while (m1) {
            const unsigned c = static_cast<unsigned>(std::countr_zero(m1));
            m1 &= m1 - 1;
            ++local[c * nc + c];  // diagonal = e_c
            std::uint64_t m2 = m1;  // strictly higher bits -> pairs once
            while (m2) {
              const unsigned d = static_cast<unsigned>(std::countr_zero(m2));
              m2 &= m2 - 1;
              ++local[c * nc + d];
            }
          }
        }
      },
      /*morsel_rows=*/0, cancel);
  parallel::MergeSlotPartials(std::span<std::uint64_t>(report.pair_counts),
                              local_pairs);
  for (std::size_t c = 0; c < nc; ++c) {
    for (std::size_t d = 0; d < c; ++d) {
      report.pair_counts[c * nc + d] = report.pair_counts[d * nc + c];
    }
  }
  return report;
}

}  // namespace gdelt::analysis
