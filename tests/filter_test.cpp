#include "engine/filter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "convert/converter.hpp"
#include "gen/emit.hpp"
#include "gen/generator.hpp"
#include "gtime/timestamp.hpp"
#include "io/crc32.hpp"
#include "io/file.hpp"
#include "io/zipstore.hpp"
#include "parallel/morsel.hpp"
#include "schema/gdelt_schema.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace gdelt::engine {
namespace {

using ::gdelt::testing::TempDir;
using ::gdelt::testing::TestDbBuilder;

/// Naive reference selection: a serial per-row predicate written from
/// the MentionFilter fields.
std::vector<std::uint64_t> BruteForceSelect(const Database& db,
                                            const MentionFilter& f) {
  std::vector<std::uint64_t> rows;
  for (std::uint64_t i = 0; i < db.num_mentions(); ++i) {
    const std::int64_t at = db.mention_interval()[i];
    if (at < f.begin_interval || at >= f.end_interval) continue;
    if (db.mention_confidence()[i] < f.min_confidence) continue;
    if (f.publisher_country != kNoCountry &&
        db.source_country()[db.mention_source_id()[i]] !=
            f.publisher_country) {
      continue;
    }
    const std::uint32_t row = db.mention_event_row()[i];
    if (row == convert::kOrphanEventRow) {
      if (f.exclude_orphans || f.event_country != kNoCountry) continue;
    } else if (f.event_country != kNoCountry &&
               db.event_country()[row] != f.event_country) {
      continue;
    }
    rows.push_back(i);
  }
  return rows;
}

/// Naive reference aggregates over a row list: serial per-row loops.
std::vector<std::uint64_t> NaiveArticlesPerSource(
    const Database& db, const std::vector<std::uint64_t>& rows) {
  std::vector<std::uint64_t> counts(db.num_sources(), 0);
  for (const std::uint64_t i : rows) ++counts[db.mention_source_id()[i]];
  return counts;
}

CountryCrossReport NaiveCrossReport(const Database& db,
                                    const std::vector<std::uint64_t>& rows) {
  const std::size_t nc = Countries().size();
  CountryCrossReport report;
  report.num_countries = nc;
  report.counts.assign(nc * nc, 0);
  report.articles_per_publisher.assign(nc, 0);
  for (const std::uint64_t i : rows) {
    const std::uint16_t pub = db.source_country()[db.mention_source_id()[i]];
    if (pub == kNoCountry) continue;
    ++report.articles_per_publisher[pub];
    const std::uint32_t row = db.mention_event_row()[i];
    if (row == convert::kOrphanEventRow) continue;
    const std::uint16_t rep = db.event_country()[row];
    if (rep != kNoCountry) ++report.counts[std::size_t{rep} * nc + pub];
  }
  return report;
}

class FilterTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dirs_ = new TempDir("filter");
    auto cfg = gen::GeneratorConfig::Tiny();
    const auto dataset = gen::GenerateDataset(cfg);
    ASSERT_TRUE(gen::EmitDataset(dataset, cfg, dirs_->path() + "/raw").ok());
    convert::ConvertOptions options;
    options.input_dir = dirs_->path() + "/raw";
    options.output_dir = dirs_->path() + "/db";
    ASSERT_TRUE(convert::ConvertDataset(options).ok());
    auto db = Database::Load(dirs_->path() + "/db");
    ASSERT_TRUE(db.ok());
    db_ = new Database(std::move(*db));
  }
  static void TearDownTestSuite() {
    delete db_;
    delete dirs_;
  }

  static inline TempDir* dirs_ = nullptr;
  static inline Database* db_ = nullptr;
};

TEST_F(FilterTest, AllFilterSelectsEverything) {
  const MentionFilter all;
  EXPECT_TRUE(all.IsAll());
  const auto rows = SelectMentions(*db_, all);
  EXPECT_EQ(rows.size(), db_->num_mentions());
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
}

TEST_F(FilterTest, TimeWindowMatchesBruteForce) {
  MentionFilter f;
  const std::int64_t span = db_->last_interval() - db_->first_interval();
  f.begin_interval = db_->first_interval() + span / 4;
  f.end_interval = db_->first_interval() + span / 2;
  const auto rows = SelectMentions(*db_, f);
  EXPECT_EQ(rows, BruteForceSelect(*db_, f));
  EXPECT_GT(rows.size(), 0u);
  EXPECT_LT(rows.size(), db_->num_mentions());
}

TEST_F(FilterTest, ConfidenceFilterMatchesBruteForce) {
  MentionFilter f;
  f.min_confidence = 60;
  const auto rows = SelectMentions(*db_, f);
  EXPECT_EQ(rows, BruteForceSelect(*db_, f));
  for (const auto i : rows) {
    EXPECT_GE(db_->mention_confidence()[i], 60);
  }
}

TEST_F(FilterTest, CountryFiltersMatchBruteForce) {
  for (const CountryId c : {country::kUSA, country::kUK, country::kIndia}) {
    MentionFilter pub;
    pub.publisher_country = c;
    EXPECT_EQ(SelectMentions(*db_, pub), BruteForceSelect(*db_, pub));
    MentionFilter loc;
    loc.event_country = c;
    EXPECT_EQ(SelectMentions(*db_, loc), BruteForceSelect(*db_, loc));
  }
}

TEST_F(FilterTest, ConjunctionMatchesBruteForce) {
  MentionFilter f;
  f.publisher_country = country::kUK;
  f.event_country = country::kUSA;
  f.min_confidence = 40;
  f.exclude_orphans = true;
  const auto rows = SelectMentions(*db_, f);
  EXPECT_EQ(rows, BruteForceSelect(*db_, f));
}

TEST_F(FilterTest, ExcludeOrphansDropsOnlyOrphans) {
  MentionFilter f;
  f.exclude_orphans = true;
  const auto rows = SelectMentions(*db_, f);
  std::uint64_t orphans = 0;
  for (const std::uint32_t row : db_->mention_event_row()) {
    if (row == convert::kOrphanEventRow) ++orphans;
  }
  EXPECT_EQ(rows.size() + orphans, db_->num_mentions());
}

TEST_F(FilterTest, FilteredArticlesPerSourceConsistent) {
  MentionFilter f;
  f.publisher_country = country::kUK;
  const auto sel = SelectMentionsBitmap(*db_, f);
  const auto rows = sel.ToRows();
  const auto counts = ArticlesPerSource(*db_, kWholeRange, &sel);
  std::uint64_t total = 0;
  for (std::uint32_t s = 0; s < db_->num_sources(); ++s) {
    total += counts[s];
    if (counts[s] > 0) {
      EXPECT_EQ(db_->source_country()[s], country::kUK);
    }
  }
  EXPECT_EQ(total, rows.size());
}

TEST_F(FilterTest, FilteredCrossReportEqualsFullOnAllRows) {
  const auto sel = SelectMentionsBitmap(*db_, MentionFilter{});
  const auto filtered = CountryCrossReporting(*db_, kWholeRange, &sel);
  const auto full = CountryCrossReporting(*db_);
  EXPECT_EQ(filtered.counts, full.counts);
  EXPECT_EQ(filtered.articles_per_publisher, full.articles_per_publisher);
}

TEST_F(FilterTest, FilteredQuarterSeriesSumsToSelection) {
  MentionFilter f;
  f.min_confidence = 50;
  const auto rows = SelectMentions(*db_, f);
  const auto series = ArticlesPerQuarter(*db_, rows);
  std::uint64_t sum = 0;
  for (const auto v : series.values) sum += v;
  EXPECT_EQ(sum, rows.size());
}

TEST_F(FilterTest, DistinctEventsBounds) {
  const auto all_rows = SelectMentions(*db_, MentionFilter{});
  const auto distinct = DistinctEvents(*db_, all_rows);
  EXPECT_EQ(distinct, db_->num_events());
  MentionFilter f;
  f.event_country = country::kUSA;
  const auto usa_rows = SelectMentions(*db_, f);
  EXPECT_LE(DistinctEvents(*db_, usa_rows), distinct);
  EXPECT_GT(DistinctEvents(*db_, usa_rows), 0u);
}

/// The filter matrix the golden equivalence suite sweeps: every
/// predicate alone plus the conjunction and the no-op filter.
std::vector<MentionFilter> EquivalenceFilters(const Database& db) {
  std::vector<MentionFilter> filters;
  filters.emplace_back();  // all-pass
  MentionFilter window;
  const std::int64_t span = db.last_interval() - db.first_interval();
  window.begin_interval = db.first_interval() + span / 4;
  window.end_interval = db.first_interval() + span / 2;
  filters.push_back(window);
  MentionFilter confidence;
  confidence.min_confidence = 60;
  filters.push_back(confidence);
  MentionFilter publisher;
  publisher.publisher_country = country::kUK;
  filters.push_back(publisher);
  MentionFilter located;
  located.event_country = country::kUSA;
  filters.push_back(located);
  MentionFilter conjunction;
  conjunction.begin_interval = db.first_interval() + span / 8;
  conjunction.end_interval = db.last_interval() - span / 8;
  conjunction.min_confidence = 40;
  conjunction.publisher_country = country::kUK;
  conjunction.exclude_orphans = true;
  filters.push_back(conjunction);
  MentionFilter none;
  none.begin_interval = db.last_interval() + 1000;
  none.end_interval = db.last_interval() + 2000;
  filters.push_back(none);  // empty result
  return filters;
}

/// Golden equivalence: the vectorized bitmap, with SIMD on and off,
/// agrees with the naive per-row reference.
TEST_F(FilterTest, BitmapMatchesNaiveUnderSimdToggle) {
  const bool saved = SimdEnabled();
  for (const MentionFilter& f : EquivalenceFilters(*db_)) {
    const auto reference = BruteForceSelect(*db_, f);

    SetSimdEnabled(false);
    const auto scalar = SelectMentionsBitmap(*db_, f);
    SetSimdEnabled(true);
    const auto simd = SelectMentionsBitmap(*db_, f);

    EXPECT_EQ(scalar.words, simd.words);  // bitwise, word for word
    EXPECT_EQ(scalar.num_rows, db_->num_mentions());
    EXPECT_EQ(scalar.CountSet(), reference.size());
    EXPECT_EQ(scalar.ToRows(), reference);
    EXPECT_EQ(SelectMentions(*db_, f), reference);
  }
  SetSimdEnabled(saved);
}

/// Bitmap-consuming aggregates equal the naive per-row aggregates (and
/// the row-vector aggregates) over the reference selection for every
/// filter in the matrix, with SIMD on and off.
TEST_F(FilterTest, BitmapAggregatesMatchNaiveAggregates) {
  const bool saved = SimdEnabled();
  for (const bool simd : {false, true}) {
    SetSimdEnabled(simd);
    for (const MentionFilter& f : EquivalenceFilters(*db_)) {
      const auto sel = SelectMentionsBitmap(*db_, f);
      const auto rows = BruteForceSelect(*db_, f);

      EXPECT_EQ(ArticlesPerSource(*db_, kWholeRange, &sel),
                NaiveArticlesPerSource(*db_, rows));

      const auto cross_sel = CountryCrossReporting(*db_, kWholeRange, &sel);
      const auto cross_rows = NaiveCrossReport(*db_, rows);
      EXPECT_EQ(cross_sel.counts, cross_rows.counts);
      EXPECT_EQ(cross_sel.articles_per_publisher,
                cross_rows.articles_per_publisher);

      const auto quarters_sel = ArticlesPerQuarter(*db_, sel);
      const auto quarters_rows = ArticlesPerQuarter(*db_, rows);
      EXPECT_EQ(quarters_sel.first_quarter, quarters_rows.first_quarter);
      EXPECT_EQ(quarters_sel.values, quarters_rows.values);

      EXPECT_EQ(DistinctEvents(*db_, sel), DistinctEvents(*db_, rows));
    }
  }
  SetSimdEnabled(saved);
}

/// Morsel-size extremes cannot change the bitmap (ToRows offsets are
/// keyed by deterministic block ranges, not worker identity).
TEST_F(FilterTest, BitmapInvariantUnderMorselSize) {
  MentionFilter f;
  f.min_confidence = 40;
  const auto reference = SelectMentionsBitmap(*db_, f);
  for (const std::size_t rows : {std::size_t{64}, std::size_t{1} << 22}) {
    parallel::SetMorselRows(rows);
    const auto sel = SelectMentionsBitmap(*db_, f);
    EXPECT_EQ(sel.words, reference.words);
    EXPECT_EQ(sel.ToRows(), reference.ToRows());
  }
  parallel::SetMorselRows(0);
}

TEST(FilterSmallTest, EmptySelection) {
  TempDir dir("filter0");
  TestDbBuilder builder;
  const auto e = builder.AddEvent(100, country::kUSA);
  builder.AddMention(e, 101, "x.com");
  auto db = builder.Build(dir.path());
  ASSERT_TRUE(db.ok());
  MentionFilter f;
  f.begin_interval = 99999;
  const auto rows = SelectMentions(*db, f);
  EXPECT_TRUE(rows.empty());
  EXPECT_EQ(DistinctEvents(*db, rows), 0u);
  const auto sel = SelectMentionsBitmap(*db, f);
  EXPECT_EQ(ArticlesPerSource(*db, kWholeRange, &sel)[0], 0u);
  EXPECT_EQ(sel.CountSet(), 0u);
  EXPECT_EQ(DistinctEvents(*db, sel), 0u);
}

/// 67 mentions: one full bitmap word plus a 3-bit tail. Exercises the
/// scalar tail kernels and the tail-masking invariant on a database far
/// smaller than one morsel.
TEST(FilterSmallTest, UnalignedTailBitmap) {
  TempDir dir("filter_tail");
  TestDbBuilder builder;
  constexpr int kMentions = 67;
  for (int i = 0; i < kMentions; ++i) {
    const auto e =
        builder.AddEvent(100 + i, i % 2 == 0 ? country::kUSA : country::kUK);
    builder.AddMention(e, 101 + i, "s" + std::to_string(i % 5) + ".com",
                       static_cast<std::uint8_t>(i % 100));
  }
  auto db = builder.Build(dir.path());
  ASSERT_TRUE(db.ok());
  ASSERT_EQ(db->num_mentions(), static_cast<std::uint64_t>(kMentions));

  // All-pass: every bit set, tail bits beyond row 66 clear.
  const auto all = SelectMentionsBitmap(*db, MentionFilter{});
  ASSERT_EQ(all.words.size(), 2u);
  EXPECT_EQ(all.words[0], ~std::uint64_t{0});
  EXPECT_EQ(all.words[1], (std::uint64_t{1} << (kMentions - 64)) - 1);
  EXPECT_EQ(all.CountSet(), static_cast<std::uint64_t>(kMentions));

  // A confidence cut that crosses the word boundary: equivalence against
  // the naive reference, including rows in the tail word.
  const bool saved = SimdEnabled();
  MentionFilter f;
  f.min_confidence = 50;
  const auto reference = BruteForceSelect(*db, f);
  for (const bool simd : {false, true}) {
    SetSimdEnabled(simd);
    const auto sel = SelectMentionsBitmap(*db, f);
    EXPECT_EQ(sel.ToRows(), reference);
    EXPECT_EQ(sel.words[1] >> (kMentions - 64), 0u);  // tail stays clear
  }
  SetSimdEnabled(saved);
}


/// Mentions laid out against capture order across several zone-map
/// blocks: rows are written in insertion order, blocks 1 and 3 are
/// swapped, block 2 carries one outlier far before every other interval,
/// and the last block is short. The zone map must stay exact.
class ZoneMapTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kBlock = Database::kZoneRows;
  static constexpr std::size_t kRows = 5 * kBlock + 1000;
  static constexpr std::int64_t kBase = 100'000;
  static constexpr std::int64_t kOutlier = 7;
  static constexpr std::size_t kOutlierRow = 2 * kBlock + 1234;

  /// Capture interval of row `r`: 8 rows per interval in capture order,
  /// with blocks 1 and 3 trading places.
  static std::int64_t IntervalOfRow(std::size_t r) {
    if (r == kOutlierRow) return kOutlier;
    std::size_t block = r / kBlock;
    if (block == 1 || block == 3) block = 4 - block;
    return kBase +
           static_cast<std::int64_t>((block * kBlock + r % kBlock) / 8);
  }

  static void SetUpTestSuite() {
    dir_ = new TempDir("zonemap");
    TestDbBuilder builder;
    builder.KeepMentionOrder();
    const CountryId countries[] = {country::kUSA, country::kUK,
                                   country::kIndia, kNoCountry};
    std::vector<std::uint64_t> events;
    for (int e = 0; e < 40; ++e) {
      events.push_back(builder.AddEvent(kBase, countries[e % 4]));
    }
    const char* sources[] = {"a.com", "b.co.uk", "c.in", "d.org", "e.fr"};
    for (std::size_t r = 0; r < kRows; ++r) {
      // Every 97th row is an orphan (its event is not in the table).
      const std::uint64_t event = r % 97 == 0 ? 1 : events[r % events.size()];
      builder.AddMention(event, IntervalOfRow(r), sources[r % 5],
                         static_cast<std::uint8_t>(r % 101));
    }
    auto db = builder.Build(dir_->path());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = new Database(std::move(*db));
  }
  static void TearDownTestSuite() {
    delete db_;
    delete dir_;
  }

  /// Windows at the interesting places: empty, everything, exactly on
  /// block edges (each block's own [min, max] and its neighbours'), one
  /// interval, and the outlier alone.
  static std::vector<MentionFilter> Windows() {
    std::vector<std::pair<std::int64_t, std::int64_t>> bounds = {
        {kBase + 10, kBase + 10},          // empty: begin == end
        {kBase + 10, kBase},               // empty: begin > end
        {kBase * 10, kBase * 10 + 5},      // after every row
        {INT64_MIN, kOutlier},             // before every row
        {kOutlier, kBase * 10},            // every row
        {kOutlier, kOutlier + 1},          // the outlier alone
        {kBase + 700, kBase + 701},        // one interval
        {kBase, kBase + 1},                // the first interval
        {INT32_MIN, INT32_MAX},            // the i32 range, minus its top
        {kOutlier, std::int64_t{INT32_MAX} + 1},  // past the i32 range
        {INT64_MIN + 1, INT64_MAX},        // every row, not the no-op filter
    };
    const auto zmin = db_->zone_min_interval();
    const auto zmax = db_->zone_max_interval();
    for (std::size_t z = 0; z < zmin.size(); ++z) {
      bounds.emplace_back(zmin[z], zmax[z] + 1);  // the block exactly
      bounds.emplace_back(zmin[z], zmax[z]);      // its last interval out
      bounds.emplace_back(zmin[z] + 1, zmax[z] + 1);
      bounds.emplace_back(zmax[z], zmax[z] + 1);
      bounds.emplace_back(zmax[z] + 1, zmax[z] + 2);  // just past it
    }
    std::vector<MentionFilter> filters;
    for (const auto& [begin, end] : bounds) {
      MentionFilter f;
      f.begin_interval = begin;
      f.end_interval = end;
      filters.push_back(f);
      f.min_confidence = 50;  // with a column pass the zone map cannot skip
      f.exclude_orphans = true;
      filters.push_back(f);
    }
    return filters;
  }

  static inline TempDir* dir_ = nullptr;
  static inline Database* db_ = nullptr;
};

TEST_F(ZoneMapTest, FixtureIsOutOfCaptureOrder) {
  ASSERT_EQ(db_->num_mentions(), kRows);
  const auto at = db_->mention_interval();
  EXPECT_FALSE(std::is_sorted(at.begin(), at.end()));
  EXPECT_EQ(at[kOutlierRow], kOutlier);
  EXPECT_GT(at[kBlock], at[3 * kBlock]);  // blocks 1 and 3 swapped
}

TEST_F(ZoneMapTest, ZoneMapAndBoundsEqualNaiveLoops) {
  const auto at = db_->mention_interval();
  const std::size_t zones = (kRows + kBlock - 1) / kBlock;
  ASSERT_EQ(db_->zone_min_interval().size(), zones);
  ASSERT_EQ(db_->zone_max_interval().size(), zones);
  for (std::size_t z = 0; z < zones; ++z) {
    std::int64_t lo = INT64_MAX;
    std::int64_t hi = INT64_MIN;
    for (std::size_t r = z * kBlock; r < std::min(kRows, (z + 1) * kBlock);
         ++r) {
      lo = std::min<std::int64_t>(lo, at[r]);
      hi = std::max<std::int64_t>(hi, at[r]);
    }
    EXPECT_EQ(db_->zone_min_interval()[z], lo) << "block " << z;
    EXPECT_EQ(db_->zone_max_interval()[z], hi) << "block " << z;
  }
  EXPECT_EQ(db_->first_interval(), *std::min_element(at.begin(), at.end()));
  EXPECT_EQ(db_->last_interval(), *std::max_element(at.begin(), at.end()));
  EXPECT_EQ(db_->first_interval(), kOutlier);
}

TEST_F(ZoneMapTest, SelectionEqualsBruteForceAtEveryWindow) {
  const bool saved = SimdEnabled();
  for (const std::size_t morsel_rows : {std::size_t{64}, kRows}) {
    parallel::SetMorselRows(morsel_rows);
    for (const bool simd : {false, true}) {
      SetSimdEnabled(simd);
      for (const MentionFilter& f : Windows()) {
        const std::string where =
            "window [" + std::to_string(f.begin_interval) + ", " +
            std::to_string(f.end_interval) + ") conf " +
            std::to_string(f.min_confidence) + " simd " +
            std::to_string(simd) + " morsel " + std::to_string(morsel_rows);
        const auto rows = BruteForceSelect(*db_, f);
        const auto sel = SelectMentionsBitmap(*db_, f);
        ASSERT_EQ(sel.words.size(), (kRows + 63) / 64) << where;
        EXPECT_LE(sel.begin_word, sel.end_word) << where;
        EXPECT_LE(sel.end_word, sel.words.size()) << where;
        for (std::size_t w = 0; w < sel.words.size(); ++w) {
          if (w < sel.begin_word || w >= sel.end_word) {
            EXPECT_EQ(sel.words[w], 0u) << where << " word " << w;
          }
        }
        EXPECT_EQ(sel.ToRows(), rows) << where;
        EXPECT_EQ(sel.CountSet(), rows.size()) << where;
        EXPECT_EQ(ArticlesPerSource(*db_, kWholeRange, &sel),
                  NaiveArticlesPerSource(*db_, rows))
            << where;
        const auto cross = CountryCrossReporting(*db_, kWholeRange, &sel);
        const auto naive = NaiveCrossReport(*db_, rows);
        EXPECT_EQ(cross.counts, naive.counts) << where;
        EXPECT_EQ(cross.articles_per_publisher, naive.articles_per_publisher)
            << where;
        EXPECT_EQ(DistinctEvents(*db_, sel), DistinctEvents(*db_, rows))
            << where;
      }
    }
  }
  parallel::SetMorselRows(0);
  SetSimdEnabled(saved);
}

/// A window covering exactly one block of a capture-ordered table spans
/// just that block's words; the pruned blocks are never part of the span.
TEST(ZoneMapSpanTest, BlockWindowSpansOneBlock) {
  TempDir dir("zonespan");
  TestDbBuilder builder;
  const auto e = builder.AddEvent(0, country::kUSA);
  constexpr std::size_t kBlock = Database::kZoneRows;
  for (std::size_t r = 0; r < 3 * kBlock; ++r) {
    builder.AddMention(e, static_cast<std::int64_t>(r / 16), "x.com");
  }
  auto db = builder.Build(dir.path());
  ASSERT_TRUE(db.ok());
  MentionFilter f;
  f.begin_interval = kBlock / 16;
  f.end_interval = 2 * kBlock / 16;
  const auto sel = SelectMentionsBitmap(*db, f);
  EXPECT_EQ(sel.begin_word, kBlock / 64);
  EXPECT_EQ(sel.end_word, 2 * kBlock / 64);
  EXPECT_EQ(sel.CountSet(), kBlock);
  EXPECT_EQ(sel.RowSpan().begin, kBlock);
  EXPECT_EQ(sel.RowSpan().end, 2 * kBlock);
}

/// The load-time totals equal naive per-row loops, on the generated
/// dataset and on the out-of-order fixture.
void ExpectTotalsMatchNaive(const Database& db) {
  std::vector<std::uint64_t> per_source(db.num_sources(), 0);
  std::vector<std::uint64_t> per_publisher(Countries().size(), 0);
  for (std::size_t i = 0; i < db.num_mentions(); ++i) {
    const std::uint32_t s = db.mention_source_id()[i];
    ++per_source[s];
    if (db.source_country()[s] != kNoCountry) {
      ++per_publisher[db.source_country()[s]];
    }
  }
  std::vector<std::uint64_t> per_located(Countries().size(), 0);
  for (const CountryId c : db.event_country()) {
    if (c != kNoCountry) ++per_located[c];
  }
  const auto as_vector = [](std::span<const std::uint64_t> v) {
    return std::vector<std::uint64_t>(v.begin(), v.end());
  };
  EXPECT_EQ(as_vector(db.source_article_count()), per_source);
  EXPECT_EQ(as_vector(ArticlesPerSource(db)), per_source);
  EXPECT_EQ(as_vector(db.country_article_count()), per_publisher);
  EXPECT_EQ(as_vector(db.country_event_count()), per_located);
}

TEST_F(FilterTest, LoadTimeTotalsEqualNaiveLoops) {
  ExpectTotalsMatchNaive(*db_);
}

TEST_F(ZoneMapTest, LoadTimeTotalsEqualNaiveLoops) {
  ExpectTotalsMatchNaive(*db_);
}

// The interval pass reads i32 columns against an i64 window; the AVX2
// path saturates the window to the i32 range. Both paths must give the
// naive predicate's bits at every bound, tails included.
TEST(IntervalWordTest, SimdAndScalarAgreeAtEveryBound) {
  constexpr std::int64_t kMin32 = std::numeric_limits<std::int32_t>::min();
  constexpr std::int64_t kMax32 = std::numeric_limits<std::int32_t>::max();
  std::vector<std::int32_t> at = {INT32_MIN, INT32_MIN + 1, -2, -1, 0, 1, 2,
                                  INT32_MAX - 1, INT32_MAX};
  Xoshiro256 rng(21);
  while (at.size() < 64) at.push_back(static_cast<std::int32_t>(rng()));
  std::vector<std::int64_t> bounds = {
      INT64_MIN, INT64_MIN + 1, kMin32 - 1, kMin32,        kMin32 + 1,
      -1,        0,             1,          kMax32 - 1,    kMax32,
      kMax32 + 1, kMax32 + 2,   INT64_MAX - 1, INT64_MAX};
  for (const std::int32_t v : at) {
    bounds.push_back(v);      // with v + 1: the one-row window [v, v + 1)
    bounds.push_back(std::int64_t{v} + 1);
  }
  const bool saved = SimdEnabled();
  for (const bool simd : {true, false}) {
    SetSimdEnabled(simd);
    // Every ordered pair, so begin >= end gives the empty windows.
    for (const std::int64_t begin : bounds) {
      for (const std::int64_t end : bounds) {
        for (const std::size_t rows : {std::size_t{64}, std::size_t{63},
                                       std::size_t{1}}) {
          std::uint64_t expected = 0;
          for (std::size_t i = 0; i < rows; ++i) {
            if (at[i] >= begin && at[i] < end) {
              expected |= std::uint64_t{1} << i;
            }
          }
          ASSERT_EQ(IntervalWord(SimdEnabled(), at.data(), rows, begin, end),
                    expected)
              << "simd=" << SimdEnabled() << " rows=" << rows << " window ["
              << begin << ", " << end << ")";
        }
      }
    }
  }
  SetSimdEnabled(saved);
}

/// Zips one CSV into `dir` and lists it in the master file.
void AddArchive(const std::string& dir, const std::string& name,
                const std::string& csv, std::string& master) {
  ZipWriter zip;
  ASSERT_TRUE(zip.Open(dir + "/" + name + ".zip").ok());
  ASSERT_TRUE(zip.AddEntry(name, csv).ok());
  ASSERT_TRUE(zip.Finish().ok());
  const auto bytes = ReadWholeFile(dir + "/" + name + ".zip");
  ASSERT_TRUE(bytes.ok());
  master += StrFormat("%zu %08x %s.zip\n", bytes->size(), Crc32(*bytes),
                      name.c_str());
}

std::string TabRow(const std::vector<std::string>& fields) {
  std::string row;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    row += fields[i] + (i + 1 < fields.size() ? "\t" : "\n");
  }
  return row;
}

// The first and last timestamps GDELT's 14-digit format allows the
// converter (years 1900 and 9999) survive the i32 interval columns and
// select through the window filter with SIMD on and off.
TEST(IntervalWordTest, ExtremeTimestampsRoundTripThroughConversion) {
  TempDir dir("extremes");
  const std::string raw = dir.path() + "/raw";
  ASSERT_TRUE(MakeDirectories(raw).ok());
  constexpr const char* kFirst = "19000101000000";
  constexpr const char* kLast = "99991231234500";
  std::vector<std::string> ev(kEventFieldCount);
  ev[Index(EventField::kGlobalEventId)] = "1";
  ev[Index(EventField::kDay)] = "19000101";
  ev[Index(EventField::kDateAdded)] = kLast;
  std::string master;
  AddArchive(raw, "20150218000000.export.CSV", TabRow(ev), master);
  std::string mentions;
  for (const char* when : {kFirst, kLast}) {
    std::vector<std::string> m(kMentionFieldCount);
    m[Index(MentionField::kGlobalEventId)] = "1";
    m[Index(MentionField::kEventTimeDate)] = kFirst;
    m[Index(MentionField::kMentionTimeDate)] = when;
    m[Index(MentionField::kMentionSourceName)] = "a.com";
    mentions += TabRow(m);
  }
  AddArchive(raw, "20150218000000.mentions.CSV", mentions, master);
  ASSERT_TRUE(WriteWholeFile(raw + "/masterfilelist.txt", master).ok());
  convert::ConvertOptions options;
  options.input_dir = raw;
  options.output_dir = dir.path() + "/db";
  const auto report = convert::ConvertDataset(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->malformed_rows, 0u);

  auto db = Database::Load(options.output_dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const IntervalId first = IntervalOfCivil(*ParseGdeltTimestamp(kFirst));
  const IntervalId last = IntervalOfCivil(*ParseGdeltTimestamp(kLast));
  ASSERT_EQ(db->num_mentions(), 2u);
  EXPECT_EQ(db->mention_interval()[0], first);
  EXPECT_EQ(db->mention_interval()[1], last);
  EXPECT_EQ(db->mention_event_interval()[1], first);
  EXPECT_EQ(db->event_added_interval()[0], last);
  EXPECT_EQ(db->first_interval(), first);
  EXPECT_EQ(db->last_interval(), last);

  const bool saved = SimdEnabled();
  for (const bool simd : {true, false}) {
    SetSimdEnabled(simd);
    MentionFilter f;
    f.begin_interval = last;
    EXPECT_EQ(SelectMentions(*db, f), (std::vector<std::uint64_t>{1}));
    f.begin_interval = INT64_MIN + 1;
    f.end_interval = first + 1;
    EXPECT_EQ(SelectMentions(*db, f), (std::vector<std::uint64_t>{0}));
  }
  SetSimdEnabled(saved);
}

}  // namespace
}  // namespace gdelt::engine
