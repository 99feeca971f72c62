#include "engine/filter.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <limits>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "convert/binary_format.hpp"
#include "parallel/morsel.hpp"
#include "schema/countries.hpp"
#include "trace/trace.hpp"

namespace gdelt::engine {
namespace {

// ---------------------------------------------------------------------------
// SIMD dispatch
// ---------------------------------------------------------------------------

/// AVX2 present on this CPU (independent of the env/runtime toggle).
bool HardwareHasSimd() noexcept {
#if defined(__x86_64__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

/// Hardware support minus the GDELT_DISABLE_SIMD=1 escape hatch.
bool DefaultSimd() noexcept {
  if (!HardwareHasSimd()) return false;
  const char* env = std::getenv("GDELT_DISABLE_SIMD");
  return env == nullptr || *env == '\0' || std::strcmp(env, "0") == 0;
}

std::atomic<bool> g_simd_enabled{DefaultSimd()};

// ---------------------------------------------------------------------------
// Per-word compare kernels: each returns a 64-bit lane mask for up to 64
// consecutive rows (bit b = row base+b passes). The AVX2 variants handle
// exactly 64 rows; tails fall back to the scalar variants.
// ---------------------------------------------------------------------------

#if defined(__x86_64__)
/// lo <= at[i] <= hi over 64 consecutive int32 intervals: 8 lanes, 8 loads.
__attribute__((target("avx2"))) std::uint64_t IntervalWordAvx2(
    const std::int32_t* at, std::int32_t lo, std::int32_t hi) {
  const __m256i lo_v = _mm256_set1_epi32(lo);
  const __m256i hi_v = _mm256_set1_epi32(hi);
  std::uint64_t bits = 0;
  for (int k = 0; k < 8; ++k) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(at + 8 * k));
    // fail = (a < lo) || (a > hi); the inclusive bound avoids hi+1.
    const __m256i fail = _mm256_or_si256(_mm256_cmpgt_epi32(lo_v, a),
                                         _mm256_cmpgt_epi32(a, hi_v));
    const auto m = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(fail)));
    bits |= static_cast<std::uint64_t>(~m & 0xFFu) << (8 * k);
  }
  return bits;
}

/// conf[i] >= min_conf (unsigned) over 64 consecutive bytes.
__attribute__((target("avx2"))) std::uint64_t ConfidenceWordAvx2(
    const std::uint8_t* conf, std::uint8_t min_conf) {
  const __m256i min_v = _mm256_set1_epi8(static_cast<char>(min_conf));
  std::uint64_t bits = 0;
  for (int k = 0; k < 2; ++k) {
    const __m256i c =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(conf + 32 * k));
    // unsigned >=: max(c, min) == c
    const __m256i ge = _mm256_cmpeq_epi8(_mm256_max_epu8(c, min_v), c);
    const auto m = static_cast<unsigned>(_mm256_movemask_epi8(ge));
    bits |= static_cast<std::uint64_t>(m) << (32 * k);
  }
  return bits;
}
#endif  // __x86_64__

std::uint64_t IntervalWordScalar(const std::int32_t* at, std::size_t rows,
                                 std::int64_t begin, std::int64_t end) {
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    const IntervalId t = at[i];
    if (t >= begin && t < end) bits |= std::uint64_t{1} << i;
  }
  return bits;
}

std::uint64_t ConfidenceWordScalar(const std::uint8_t* conf, std::size_t rows,
                                   std::uint8_t min_conf) {
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    if (conf[i] >= min_conf) bits |= std::uint64_t{1} << i;
  }
  return bits;
}

std::uint64_t ConfidenceWord(bool simd, const std::uint8_t* conf,
                             std::size_t rows, std::uint8_t min_conf) {
#if defined(__x86_64__)
  if (simd && rows == 64) return ConfidenceWordAvx2(conf, min_conf);
#endif
  (void)simd;
  return ConfidenceWordScalar(conf, rows, min_conf);
}

/// Words per pool morsel for bitmap-granular loops, matching the
/// row-granular morsel size so ablation sweeps move both together.
std::size_t WordsPerMorsel() {
  return std::max<std::size_t>(1, parallel::MorselRows() / 64);
}

/// Histogram of bin_of(i) over the mention rows of `rows`, or over only
/// the rows `sel` selects there (words outside its span are zero, so the
/// scan stops at the span).
template <typename BinOf>
std::vector<std::uint64_t> MentionHistogram(const Database& db,
                                            IndexRange rows,
                                            const SelectionBitmap* sel,
                                            std::size_t num_bins,
                                            BinOf&& bin_of,
                                            const util::CancelToken* cancel) {
  rows = ClampRange(rows, db.num_mentions());
  if (sel != nullptr) {
    const IndexRange span = sel->RowSpan();
    rows = {std::max(rows.begin, span.begin), std::min(rows.end, span.end)};
  }
  return parallel::PoolHistogram(rows, num_bins, bin_of,
                                 sel != nullptr ? sel->words.data() : nullptr,
                                 cancel);
}

/// What the zone map says about one block of rows against a window.
enum class ZoneMatch : std::uint8_t {
  kNone,     ///< no row of the block can be in the window
  kPartial,  ///< rows must be compared one by one
  kAll,      ///< every row of the block is in the window
};

}  // namespace

std::uint64_t IntervalWord(bool simd, const std::int32_t* at, std::size_t rows,
                           std::int64_t begin, std::int64_t end) {
#if defined(__x86_64__)
  if (simd && rows == 64) {
    // Saturate the i64 window to the inclusive i32 range [lo, hi]; a
    // window outside the i32 range selects nothing.
    constexpr std::int64_t kMin = std::numeric_limits<std::int32_t>::min();
    constexpr std::int64_t kMax = std::numeric_limits<std::int32_t>::max();
    if (begin >= end || begin > kMax || end <= kMin) return 0;
    const auto lo = static_cast<std::int32_t>(std::max(begin, kMin));
    const auto hi = static_cast<std::int32_t>(std::min(end - 1, kMax));
    return IntervalWordAvx2(at, lo, hi);
  }
#endif
  (void)simd;
  return IntervalWordScalar(at, rows, begin, end);
}

void SetSimdEnabled(bool enabled) noexcept {
  g_simd_enabled.store(enabled && HardwareHasSimd(),
                       std::memory_order_relaxed);
}

bool SimdEnabled() noexcept {
  return g_simd_enabled.load(std::memory_order_relaxed);
}

std::uint64_t SelectionBitmap::CountSet() const noexcept {
  return CountSet(RowSpan());
}

std::uint64_t SelectionBitmap::CountSet(IndexRange rows) const noexcept {
  rows = ClampRange(rows, num_rows);
  if (rows.empty()) return 0;
  const std::size_t first = rows.begin / 64;
  const std::size_t last = (rows.end - 1) / 64;
  const std::uint64_t head = ~std::uint64_t{0} << (rows.begin & 63);
  const std::uint64_t tail = ~std::uint64_t{0} >> (63 - (rows.end - 1) % 64);
  if (first == last) {
    return static_cast<std::uint64_t>(
        std::popcount(words[first] & head & tail));
  }
  std::uint64_t total =
      static_cast<std::uint64_t>(std::popcount(words[first] & head)) +
      static_cast<std::uint64_t>(std::popcount(words[last] & tail));
  for (std::size_t w = first + 1; w < last; ++w) {
    total += static_cast<std::uint64_t>(std::popcount(words[w]));
  }
  return total;
}

std::vector<std::uint64_t> SelectionBitmap::ToRows() const {
  const std::size_t nw = end_word - begin_word;
  const std::uint64_t* span = words.data() + begin_word;
  const std::size_t bw = WordsPerMorsel();
  const std::size_t num_blocks = (nw + bw - 1) / bw;
  // Pass 1: per-block set counts. Each pool morsel is exactly one block
  // (same words-per-morsel), so block index = r.begin / bw is unique and
  // deterministic regardless of which worker ran it.
  std::vector<std::uint64_t> offsets(num_blocks, 0);
  parallel::PoolParallelFor(
      nw,
      [&](IndexRange r, std::size_t) {
        std::uint64_t count = 0;
        for (std::size_t w = r.begin; w < r.end; ++w) {
          count += static_cast<std::uint64_t>(std::popcount(span[w]));
        }
        offsets[r.begin / bw] = count;
      },
      bw);
  const std::uint64_t total = ExclusivePrefixSum(offsets);
  // Pass 2: scatter ascending row ids at each block's offset.
  std::vector<std::uint64_t> rows(total);
  parallel::PoolParallelFor(
      nw,
      [&](IndexRange r, std::size_t) {
        std::uint64_t at = offsets[r.begin / bw];
        for (std::size_t w = r.begin; w < r.end; ++w) {
          std::uint64_t bits = span[w];
          while (bits) {
            const auto b = static_cast<unsigned>(std::countr_zero(bits));
            bits &= bits - 1;
            rows[at++] = (begin_word + w) * 64 + b;
          }
        }
      },
      bw);
  return rows;
}

SelectionBitmap SelectMentionsBitmap(const Database& db,
                                     const MentionFilter& filter) {
  TRACE_SPAN("engine.select_mentions");
  SelectionBitmap sel;
  const std::size_t n = db.num_mentions();
  sel.num_rows = n;
  const std::size_t nw = (n + 63) / 64;

  const bool interval_pass = filter.begin_interval != INT64_MIN ||
                             filter.end_interval != INT64_MAX;
  const bool conf_pass = filter.min_confidence > 0;
  if (!interval_pass && !conf_pass) {
    sel.words.assign(nw, ~std::uint64_t{0});
    if (const std::size_t tail = n & 63; tail != 0) {
      sel.words[nw - 1] = ~std::uint64_t{0} >> (64 - tail);
    }
    sel.end_word = nw;
    return sel;
  }
  sel.words.assign(nw, 0);

  // Zone-map pruning: classify every block against the window, and
  // bound the word span by the first and last block that can match.
  const auto zone_min = db.zone_min_interval();
  const auto zone_max = db.zone_max_interval();
  std::vector<ZoneMatch> zones(zone_min.size(), ZoneMatch::kAll);
  std::size_t first_zone = zones.size();
  std::size_t end_zone = 0;
  for (std::size_t z = 0; z < zones.size(); ++z) {
    if (interval_pass) {
      if (zone_max[z] < filter.begin_interval ||
          zone_min[z] >= filter.end_interval) {
        zones[z] = ZoneMatch::kNone;
        continue;
      }
      if (zone_min[z] < filter.begin_interval ||
          zone_max[z] >= filter.end_interval) {
        zones[z] = ZoneMatch::kPartial;
      }
    }
    first_zone = std::min(first_zone, z);
    end_zone = z + 1;
  }
  constexpr std::size_t kZoneWords = Database::kZoneRows / 64;
  if (first_zone >= end_zone) return sel;  // empty span
  sel.begin_word = first_zone * kZoneWords;
  sel.end_word = std::min(nw, end_zone * kZoneWords);

  const bool simd = SimdEnabled();
  const auto at = db.mention_interval();
  const auto conf = db.mention_confidence();

  parallel::PoolParallelFor(
      sel.end_word - sel.begin_word,
      [&](IndexRange r, std::size_t) {
        for (std::size_t w = sel.begin_word + r.begin;
             w < sel.begin_word + r.end; ++w) {
          const ZoneMatch zone = zones[w / kZoneWords];
          if (zone == ZoneMatch::kNone) continue;  // stays zero
          const std::size_t row0 = w * 64;
          const std::size_t rows_here = std::min<std::size_t>(64, n - row0);
          std::uint64_t bits = ~std::uint64_t{0} >> (64 - rows_here);
          if (zone == ZoneMatch::kPartial) {
            bits &= IntervalWord(simd, at.data() + row0, rows_here,
                                 filter.begin_interval, filter.end_interval);
          }
          if (bits != 0 && conf_pass) {
            bits &= ConfidenceWord(simd, conf.data() + row0, rows_here,
                                   filter.min_confidence);
          }
          sel.words[w] = bits;
        }
      },
      WordsPerMorsel());
  return sel;
}

std::vector<std::uint64_t> ArticlesPerSource(const Database& db,
                                             IndexRange mentions,
                                             const SelectionBitmap* sel,
                                             const util::CancelToken* cancel) {
  TRACE_SPAN(sel != nullptr ? "engine.articles_per_source.filtered"
                            : "engine.articles_per_source");
  mentions = ClampRange(mentions, db.num_mentions());
  if (sel == nullptr && mentions.size() == db.num_mentions()) {
    const auto totals = db.source_article_count();
    return {totals.begin(), totals.end()};
  }
  const auto src = db.mention_source_id();
  return MentionHistogram(
      db, mentions, sel, db.num_sources(),
      [&](std::uint64_t i) -> std::size_t { return src[i]; }, cancel);
}

CountryCrossReport CountryCrossReporting(const Database& db,
                                         IndexRange mentions,
                                         const SelectionBitmap* sel,
                                         const util::CancelToken* cancel) {
  TRACE_SPAN(sel != nullptr ? "engine.cross_report.filtered"
                            : "engine.cross_report");
  const std::size_t nc = Countries().size();
  const auto event_row = db.mention_event_row();
  const auto src = db.mention_source_id();
  const auto event_country = db.event_country();
  const auto source_country = db.source_country();
  // Bins: the nc*nc (reported, publishing) matrix for located articles,
  // then one untagged bin per publisher for orphan or unlocated events;
  // articles from an unknown publisher country count nowhere.
  const std::size_t matrix_bins = nc * nc;
  auto bins = MentionHistogram(
      db, mentions, sel, matrix_bins + nc,
      [&](std::uint64_t i) -> std::size_t {
        const std::uint16_t pub = source_country[src[i]];
        if (pub == kNoCountry) return SIZE_MAX;
        const std::uint32_t row = event_row[i];
        if (row == convert::kOrphanEventRow) return matrix_bins + pub;
        const std::uint16_t rep = event_country[row];
        if (rep == kNoCountry) return matrix_bins + pub;
        return static_cast<std::size_t>(rep) * nc + pub;
      },
      cancel);
  return CountryCrossReport::FromBins(nc, std::move(bins));
}

}  // namespace gdelt::engine
