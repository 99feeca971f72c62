#include "engine/filter.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "convert/converter.hpp"
#include "gen/emit.hpp"
#include "gen/generator.hpp"
#include "parallel/morsel.hpp"
#include "test_util.hpp"

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
  const auto counts = ArticlesPerSource(*db_, sel);
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
  const auto filtered = CountryCrossReporting(*db_, sel);
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

      EXPECT_EQ(ArticlesPerSource(*db_, sel),
                NaiveArticlesPerSource(*db_, rows));

      const auto cross_sel = CountryCrossReporting(*db_, sel);
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
  EXPECT_EQ(ArticlesPerSource(*db, sel)[0], 0u);
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

}  // namespace
}  // namespace gdelt::engine
