#include "engine/database.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "convert/converter.hpp"
#include "engine/filter.hpp"
#include "gen/emit.hpp"
#include "gen/generator.hpp"
#include "test_util.hpp"

namespace gdelt::engine {
namespace {

using ::gdelt::testing::TempDir;
using ::gdelt::testing::TestDbBuilder;

/// Fixture converting a Tiny generated dataset once for all query tests.
class EngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dirs_ = new TempDir("engine");
    cfg_ = gen::GeneratorConfig::Tiny();
    cfg_.defect_missing_archives = 0;  // keep totals exactly equal to truth
    dataset_ = new gen::RawDataset(gen::GenerateDataset(cfg_));
    ASSERT_TRUE(
        gen::EmitDataset(*dataset_, cfg_, dirs_->path() + "/raw").ok());
    convert::ConvertOptions options;
    options.input_dir = dirs_->path() + "/raw";
    options.output_dir = dirs_->path() + "/db";
    ASSERT_TRUE(convert::ConvertDataset(options).ok());
    auto db = Database::Load(dirs_->path() + "/db");
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = new Database(std::move(*db));
  }
  static void TearDownTestSuite() {
    delete db_;
    delete dataset_;
    delete dirs_;
  }

  static inline TempDir* dirs_ = nullptr;
  static inline gen::GeneratorConfig cfg_;
  static inline gen::RawDataset* dataset_ = nullptr;
  static inline Database* db_ = nullptr;
};

TEST_F(EngineTest, LoadMatchesGroundTruth) {
  EXPECT_EQ(db_->num_events(), dataset_->truth.num_events);
  EXPECT_EQ(db_->num_mentions(), dataset_->truth.num_mentions);
  EXPECT_GT(db_->num_sources(), 0u);
  EXPECT_GT(db_->MemoryBytes(), 0u);
}

TEST_F(EngineTest, ArticlesPerSourceMatchesTruth) {
  const auto counts = ArticlesPerSource(*db_);
  // Match by domain name: dictionary ids differ from world indexes.
  std::map<std::string, std::uint64_t> truth;
  for (std::size_t i = 0; i < dataset_->world.sources.size(); ++i) {
    if (dataset_->truth.articles_per_source[i] > 0) {
      truth[dataset_->world.sources[i].domain] =
          dataset_->truth.articles_per_source[i];
    }
  }
  std::uint64_t total = 0;
  for (std::uint32_t s = 0; s < db_->num_sources(); ++s) {
    const auto it = truth.find(std::string(db_->source_domain(s)));
    ASSERT_NE(it, truth.end()) << db_->source_domain(s);
    EXPECT_EQ(counts[s], it->second) << db_->source_domain(s);
    total += counts[s];
  }
  EXPECT_EQ(total, db_->num_mentions());
}

TEST_F(EngineTest, EventArticleCountsMatchIndex) {
  const auto counts = db_->event_article_count();
  for (std::size_t e = 0; e < db_->num_events(); ++e) {
    EXPECT_EQ(counts[e],
              db_->mentions_by_event().CountOf(static_cast<std::uint32_t>(e)));
  }
}

TEST_F(EngineTest, TopEventsAreSortedAndMega) {
  const auto top = TopReportedEvents(*db_, 10);
  ASSERT_EQ(top.size(), 10u);
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].articles, top[i].articles);
  }
  // The two planted mega events must occupy the first two rows.
  std::set<std::uint64_t> mega_ids;
  for (const auto& ev : dataset_->events) {
    if (ev.is_mega) mega_ids.insert(ev.global_event_id);
  }
  const auto gids = db_->event_global_id();
  EXPECT_TRUE(mega_ids.count(gids[top[0].event_row]));
  EXPECT_TRUE(mega_ids.count(gids[top[1].event_row]));
}

TEST_F(EngineTest, TopSourcesSortedDescending) {
  const auto counts = ArticlesPerSource(*db_);
  const auto top = TopSourcesByArticles(*db_, 10);
  ASSERT_EQ(top.size(), 10u);
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(counts[top[i - 1]], counts[top[i]]);
  }
  // No other source may beat the 10th.
  for (std::uint32_t s = 0; s < db_->num_sources(); ++s) {
    if (std::find(top.begin(), top.end(), s) == top.end()) {
      EXPECT_LE(counts[s], counts[top.back()]);
    }
  }
}

TEST_F(EngineTest, QuarterlySeriesSumToTotals) {
  const auto articles = ArticlesPerQuarter(*db_);
  std::uint64_t article_sum = 0;
  for (const auto v : articles.values) article_sum += v;
  EXPECT_EQ(article_sum, db_->num_mentions());

  const auto events = EventsPerQuarter(*db_);
  std::uint64_t event_sum = 0;
  for (const auto v : events.values) event_sum += v;
  EXPECT_EQ(event_sum, db_->num_events());
}

TEST_F(EngineTest, ActiveSourcesNeverExceedsTotal) {
  const auto active = ActiveSourcesPerQuarter(*db_);
  for (const auto v : active.values) {
    EXPECT_LE(v, db_->num_sources());
    EXPECT_GT(v, 0u);
  }
}

TEST_F(EngineTest, SourceQuarterSeriesMatchesTotals) {
  const auto top = TopSourcesByArticles(*db_, 5);
  const auto counts = ArticlesPerSource(*db_);
  const auto series = SourceArticlesPerQuarter(*db_, top);
  ASSERT_EQ(series.size(), top.size());
  for (std::size_t s = 0; s < top.size(); ++s) {
    std::uint64_t sum = 0;
    for (const auto v : series[s].values) sum += v;
    EXPECT_EQ(sum, counts[top[s]]);
  }
}

TEST_F(EngineTest, CrossReportingColumnTotals) {
  const auto report = CountryCrossReporting(*db_);
  // Column totals must equal per-country published articles.
  const auto src = db_->mention_source_id();
  const auto source_country = db_->source_country();
  std::vector<std::uint64_t> expected(Countries().size(), 0);
  for (std::size_t i = 0; i < src.size(); ++i) {
    const std::uint16_t c = source_country[src[i]];
    if (c != kNoCountry) ++expected[c];
  }
  ASSERT_EQ(report.articles_per_publisher.size(), expected.size());
  for (std::size_t c = 0; c < expected.size(); ++c) {
    EXPECT_EQ(report.articles_per_publisher[c], expected[c]) << c;
  }
  // Percentages over reported countries stay within [0, 100].
  for (std::size_t r = 0; r < report.num_countries; ++r) {
    for (std::size_t p = 0; p < report.num_countries; ++p) {
      const double pct = report.Percent(static_cast<CountryId>(r),
                                        static_cast<CountryId>(p));
      EXPECT_GE(pct, 0.0);
      EXPECT_LE(pct, 100.0);
    }
  }
}

TEST_F(EngineTest, UsaDominatesReportedEvents) {
  const auto ranked = CountriesByReportedEvents(*db_, 3);
  ASSERT_FALSE(ranked.empty());
  EXPECT_EQ(ranked[0], country::kUSA) << "USA hosts most events (Table VI)";
}

TEST_F(EngineTest, MissingDatabaseDirectoryFails) {
  EXPECT_FALSE(Database::Load("/no/such/dir").ok());
}

TEST_F(EngineTest, DistinctSourceIndexMatchesBruteForce) {
  const auto& index = db_->event_distinct_sources();
  ASSERT_EQ(index.num_keys(), db_->num_events());
  const auto src = db_->mention_source_id();
  for (std::size_t e = 0; e < db_->num_events(); ++e) {
    std::set<std::uint32_t> expected;
    for (const std::uint64_t row :
         db_->mentions_by_event().RowsOf(static_cast<std::uint32_t>(e))) {
      expected.insert(src[row]);
    }
    const auto got = index.ValuesOf(static_cast<std::uint32_t>(e));
    ASSERT_EQ(got.size(), expected.size()) << "event " << e;
    // Sorted, deduplicated, and exactly the reporting sources (std::set
    // iterates ascending, so element-wise equality checks all three).
    std::size_t i = 0;
    for (const std::uint32_t s : expected) {
      ASSERT_EQ(got[i++], s) << "event " << e;
    }
  }
}

TEST_F(EngineTest, DistinctSourceIndexIsMemoized) {
  const auto& first = db_->event_distinct_sources();
  const auto& second = db_->event_distinct_sources();
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(first.values.data(), second.values.data());
}

TEST(DistinctSourceIndexTest, EmptyEventsAndDedup) {
  TempDir dir("distinct_idx");
  TestDbBuilder builder;
  const auto e1 = builder.AddEvent(100);
  const auto e2 = builder.AddEvent(200);  // never mentioned
  const auto e3 = builder.AddEvent(300);
  builder.AddMention(e1, 101, "b.com");
  builder.AddMention(e1, 102, "a.com");
  builder.AddMention(e1, 103, "b.com");  // duplicate source
  builder.AddMention(e3, 301, "c.com");
  (void)e2;
  auto db = builder.Build(dir.path());
  ASSERT_TRUE(db.ok());
  const auto& index = db->event_distinct_sources();
  ASSERT_EQ(index.num_keys(), 3u);
  const auto a = *db->sources().Find("a.com");
  const auto b = *db->sources().Find("b.com");
  const auto c = *db->sources().Find("c.com");
  // Event 0: {a, b} sorted ascending despite b arriving first, dup dropped.
  ASSERT_EQ(index.CountOf(0), 2u);
  EXPECT_EQ(index.ValuesOf(0)[0], std::min(a, b));
  EXPECT_EQ(index.ValuesOf(0)[1], std::max(a, b));
  // Event 1: no mentions -> empty list.
  EXPECT_EQ(index.CountOf(1), 0u);
  EXPECT_TRUE(index.ValuesOf(1).empty());
  // Event 2: singleton.
  ASSERT_EQ(index.CountOf(2), 1u);
  EXPECT_EQ(index.ValuesOf(2)[0], c);
}

TEST(DistinctSourceIndexTest, EmptyDatabase) {
  TempDir dir("distinct_empty");
  TestDbBuilder builder;
  builder.AddEvent(100);  // one event, zero mentions
  auto db = builder.Build(dir.path());
  ASSERT_TRUE(db.ok());
  const auto& index = db->event_distinct_sources();
  ASSERT_EQ(index.num_keys(), 1u);
  EXPECT_EQ(index.CountOf(0), 0u);
  EXPECT_TRUE(index.values.empty());
}

TEST(DatabaseIntegrityTest, RejectsOutOfRangeEventRow) {
  TempDir dir("integrity");
  TestDbBuilder builder;
  const auto e = builder.AddEvent(1000);
  builder.AddMention(e, 1001, "a.com");
  builder.AddMention(e + 999, 1002, "b.com");  // orphan: unknown event id
  auto db = builder.Build(dir.path());
  ASSERT_TRUE(db.ok()) << db.status().ToString();  // orphans are legal
  EXPECT_EQ(db->num_mentions(), 2u);
  EXPECT_EQ(db->mentions_by_event().CountOf(0), 1u);
}

TEST(DatabaseSmallTest, HandBuiltCountsAndSpans) {
  TempDir dir("small");
  TestDbBuilder builder;
  const auto e1 = builder.AddEvent(100, country::kUSA);
  const auto e2 = builder.AddEvent(200, country::kUK);
  builder.AddMention(e1, 101, "x.com");
  builder.AddMention(e1, 102, "y.co.uk");
  builder.AddMention(e1, 103, "x.com");
  builder.AddMention(e2, 201, "y.co.uk");
  auto db = builder.Build(dir.path());
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->num_events(), 2u);
  EXPECT_EQ(db->num_mentions(), 4u);
  EXPECT_EQ(db->num_sources(), 2u);
  EXPECT_EQ(db->event_article_count()[0], 3u);
  EXPECT_EQ(db->event_article_count()[1], 1u);
  EXPECT_EQ(db->first_interval(), 101);
  EXPECT_EQ(db->last_interval(), 201);
  // Source countries derived from TLDs.
  const auto x = *db->sources().Find("x.com");
  const auto y = *db->sources().Find("y.co.uk");
  EXPECT_EQ(db->source_country()[x], country::kUSA);
  EXPECT_EQ(db->source_country()[y], country::kUK);
}

// A database from a converter with another column set must be refused
// with a pointer to the fix, not crash a kernel or misread a column.
TEST(DatabaseSchemaTest, OldOrIncompleteSchemaIsDataLoss) {
  TempDir dir("oldschema");
  TestDbBuilder builder;
  const auto e = builder.AddEvent(1000);
  builder.AddMention(e, 1001, "a.com");
  ASSERT_TRUE(builder.Build(dir.path()).ok());
  const std::string mentions_path = dir.path() + "/mentions.tbl";
  const std::string events_path = dir.path() + "/events.tbl";

  // The older converter's mentions table: i64 intervals, plus the event
  // id and URL columns that nothing reads.
  Table old_mentions;
  old_mentions.AddColumn("event_row", ColumnType::kU32)
      .Append<std::uint32_t>(0);
  old_mentions.AddColumn("global_event_id", ColumnType::kU64)
      .Append<std::uint64_t>(e);
  old_mentions.AddColumn("event_interval", ColumnType::kI64)
      .Append<std::int64_t>(1000);
  old_mentions.AddColumn("mention_interval", ColumnType::kI64)
      .Append<std::int64_t>(1001);
  old_mentions.AddColumn("source_id", ColumnType::kU32)
      .Append<std::uint32_t>(0);
  old_mentions.AddColumn("confidence", ColumnType::kU8).Append<std::uint8_t>(1);
  old_mentions.AddColumn("url", ColumnType::kStr).AppendString("http://a.com/");
  ASSERT_TRUE(old_mentions.WriteToFile(mentions_path).ok());
  auto db = Database::Load(dir.path());
  EXPECT_EQ(db.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(db.status().message().find("re-run gdelt_convert"),
            std::string::npos)
      << db.status().ToString();

  // Current mentions back, and an events table missing its URL column.
  ASSERT_TRUE(builder.Build(dir.path()).ok());
  namespace ec = convert::events_col;
  Table no_url;
  no_url.AddColumn(std::string(ec::kGlobalId), ColumnType::kU64)
      .Append<std::uint64_t>(e);
  no_url.AddColumn(std::string(ec::kAddedInterval), ColumnType::kI32)
      .Append<std::int32_t>(1001);
  no_url.AddColumn(std::string(ec::kCountry), ColumnType::kU16)
      .Append<std::uint16_t>(kNoCountry);
  no_url.AddColumn(std::string(ec::kGoldstein), ColumnType::kF64)
      .Append<double>(0.0);
  no_url.AddColumn(std::string(ec::kAvgTone), ColumnType::kF64)
      .Append<double>(0.0);
  no_url.AddColumn(std::string(ec::kQuadClass), ColumnType::kU8)
      .Append<std::uint8_t>(1);
  ASSERT_TRUE(no_url.WriteToFile(events_path).ok());
  db = Database::Load(dir.path());
  EXPECT_EQ(db.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(db.status().message().find("source_url"), std::string::npos)
      << db.status().ToString();
  EXPECT_NE(db.status().message().find("re-run gdelt_convert"),
            std::string::npos);
}

}  // namespace
}  // namespace gdelt::engine
