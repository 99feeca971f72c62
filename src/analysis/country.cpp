#include "analysis/country.hpp"

#include <bit>

#include "parallel/parallel.hpp"
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

  // Pass 1: publisher-country mask per event (parallel, disjoint writes).
  std::vector<std::uint64_t> masks(events.size(), 0);
  ParallelFor(
      events.size(),
      [&](std::size_t k) {
        if ((k & 255) == 0 && util::Cancelled(cancel)) return;
        std::uint64_t mask = 0;
        for (const std::uint64_t row : db.mentions_by_event().RowsOf(
                 static_cast<std::uint32_t>(events.begin + k))) {
          const std::uint16_t c = source_country[src[row]];
          if (c != kNoCountry) mask |= 1ull << c;
        }
        masks[k] = mask;
      },
      Schedule::kDynamic);

  // Pass 2: accumulate e_c (diagonal) and e_cd (upper triangle) from the
  // masks with per-thread partials.
  CountryCoReport report;
  report.n = nc;
  report.pair_counts.assign(nc * nc, 0);

  const auto nt = static_cast<std::size_t>(MaxThreads());
  std::vector<std::vector<std::uint64_t>> local_pairs(nt);
  ParallelForChunks(masks.size(), [&](IndexRange r, int tid) {
    auto& local = local_pairs[static_cast<std::size_t>(tid)];
    local.assign(nc * nc, 0);
    for (std::size_t e = r.begin; e < r.end; ++e) {
      if ((e & 4095) == 0 && util::Cancelled(cancel)) return;
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
  });
  for (const auto& local : local_pairs) {
    if (local.empty()) continue;
    for (std::size_t i = 0; i < nc * nc; ++i) {
      report.pair_counts[i] += local[i];
    }
  }
  for (std::size_t c = 0; c < nc; ++c) {
    for (std::size_t d = 0; d < c; ++d) {
      report.pair_counts[c * nc + d] = report.pair_counts[d * nc + c];
    }
  }
  return report;
}

}  // namespace gdelt::analysis
