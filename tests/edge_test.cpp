// Edge-condition coverage: empty datasets end-to-end, degenerate inputs,
// and the logging utility.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "analysis/coreport.hpp"
#include "analysis/country.hpp"
#include "analysis/delay.hpp"
#include "analysis/distributions.hpp"
#include "analysis/firstreport.hpp"
#include "analysis/followreport.hpp"
#include "analysis/stats.hpp"
#include "analysis/tone.hpp"
#include "convert/converter.hpp"
#include "engine/filter.hpp"
#include "engine/queries.hpp"
#include "io/file.hpp"
#include "test_util.hpp"
#include "util/logging.hpp"

namespace gdelt {
namespace {

using testing::TempDir;
using testing::TestDbBuilder;

/// A database with zero events and zero mentions, produced by running the
/// converter over an empty (but well-formed) raw directory.
class EmptyDatabaseTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dirs_ = new TempDir("empty");
    // Master list with no entries at all.
    ASSERT_TRUE(
        WriteWholeFile(dirs_->path() + "/masterfilelist.txt", "").ok());
    convert::ConvertOptions options;
    options.input_dir = dirs_->path();
    options.output_dir = dirs_->path() + "/db";
    auto report = convert::ConvertDataset(options);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->event_rows, 0u);
    EXPECT_EQ(report->mention_rows, 0u);
    auto db = engine::Database::Load(dirs_->path() + "/db");
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = new engine::Database(std::move(*db));
  }
  static void TearDownTestSuite() {
    delete db_;
    delete dirs_;
  }
  static inline TempDir* dirs_ = nullptr;
  static inline engine::Database* db_ = nullptr;
};

TEST_F(EmptyDatabaseTest, SizesAreZero) {
  EXPECT_EQ(db_->num_events(), 0u);
  EXPECT_EQ(db_->num_mentions(), 0u);
  EXPECT_EQ(db_->num_sources(), 0u);
}

TEST_F(EmptyDatabaseTest, AllEngineQueriesAreSafe) {
  EXPECT_TRUE(engine::ArticlesPerSource(*db_).empty());
  EXPECT_TRUE(engine::TopSourcesByArticles(*db_, 10).empty());
  EXPECT_TRUE(engine::TopReportedEvents(*db_, 10).empty());
  EXPECT_TRUE(engine::ArticlesPerQuarter(*db_).values.empty());
  EXPECT_TRUE(engine::EventsPerQuarter(*db_).values.empty());
  EXPECT_TRUE(engine::ActiveSourcesPerQuarter(*db_).values.empty());
  const auto cross = engine::CountryCrossReporting(*db_);
  for (const auto v : cross.counts) EXPECT_EQ(v, 0u);
  EXPECT_TRUE(engine::SelectMentions(*db_, engine::MentionFilter{}).empty());
  // Every partition of the (empty) mention axis is empty too.
  for (const IndexRange part : SplitRange(db_->num_mentions(), 4)) {
    const auto partial = engine::CountryCrossReporting(*db_, part);
    EXPECT_EQ(partial.counts, cross.counts);
    EXPECT_EQ(partial.articles_per_publisher, cross.articles_per_publisher);
  }
}

TEST_F(EmptyDatabaseTest, AllAnalysesAreSafe) {
  const auto stats = analysis::ComputeDatasetStatistics(*db_);
  EXPECT_EQ(stats.articles, 0u);
  EXPECT_EQ(stats.capture_intervals, 0u);
  EXPECT_DOUBLE_EQ(stats.weighted_avg_articles_per_event, 0.0);
  EXPECT_TRUE(
      analysis::PerSourceDelayStats(*db_, engine::AllSources(*db_)).empty());
  const auto quarterly = analysis::QuarterlyDelayStats(*db_);
  EXPECT_TRUE(quarterly.average.empty());
  const auto coreport =
      analysis::ComputeCoReporting(*db_, engine::AllSources(*db_));
  EXPECT_EQ(coreport.size(), 0u);
  const auto country = analysis::ComputeCountryCoReporting(*db_);
  for (const auto c : country.pair_counts) EXPECT_EQ(c, 0u);
  const auto first = analysis::ComputeFirstReports(*db_);
  EXPECT_EQ(first.events_broken_within_hour, 0u);
  const auto tone = analysis::ToneByBin(*db_);
  EXPECT_EQ(tone[analysis::QuadToneBin(1)].count, 0u);
  EXPECT_DOUBLE_EQ(analysis::EventSizePowerLawAlpha(*db_, 1), 0.0);
}

TEST(SingleMentionTest, AllPathsWork) {
  TempDir dir("single");
  TestDbBuilder builder;
  const auto e = builder.AddEvent(1600000, country::kUSA);
  builder.AddMention(e, 1600004, "only.com");
  auto db = builder.Build(dir.path());
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(analysis::ComputeDatasetStatistics(*db).capture_intervals, 1u);
  const auto stats =
      analysis::PerSourceDelayStats(*db, engine::AllSources(*db));
  EXPECT_EQ(stats[0].min, 4);
  EXPECT_EQ(stats[0].max, 4);
  EXPECT_EQ(stats[0].median, 4);
  const auto follow = analysis::ComputeFollowReporting(
      *db, std::vector<std::uint32_t>{0});
  EXPECT_EQ(follow.FollowCount(0, 0), 0u);
  const auto active = engine::ActiveSourcesPerQuarter(*db);
  ASSERT_EQ(active.values.size(), 1u);
  EXPECT_EQ(active.values[0], 1u);
}

TEST(LoggingTest, LevelFilteringAndThreadSafety) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // These must not crash and must respect the filter (no output assertion;
  // we only exercise the paths, including concurrent use).
  GDELT_LOG(kDebug, "suppressed");
  GDELT_LOG(kError, std::string("emitted to stderr (expected in test log)"));
  SetLogLevel(LogLevel::kDebug);
  std::vector<std::thread> racers;
  for (int i = 0; i < 8; ++i) {
    racers.emplace_back([] {
      SetLogLevel(LogLevel::kWarning);  // racing set/get must be safe
      (void)GetLogLevel();
    });
  }
  for (auto& racer : racers) racer.join();
  SetLogLevel(original);
}

TEST(ConvertEdgeTest, MasterListWithOnlyMalformedEntries) {
  TempDir dir("allbad");
  ASSERT_TRUE(WriteWholeFile(dir.path() + "/masterfilelist.txt",
                             "junk\nmore junk here\n")
                  .ok());
  convert::ConvertOptions options;
  options.input_dir = dir.path();
  options.output_dir = dir.path() + "/db";
  const auto report = convert::ConvertDataset(options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->malformed_master_entries, 2u);
  EXPECT_EQ(report->event_rows, 0u);
}

TEST(FollowEdgeTest, EmptySubset) {
  TempDir dir("followempty");
  TestDbBuilder builder;
  const auto e = builder.AddEvent(100);
  builder.AddMention(e, 101, "a.com");
  auto db = builder.Build(dir.path());
  ASSERT_TRUE(db.ok());
  const auto m = analysis::ComputeFollowReporting(*db, {});
  EXPECT_EQ(m.n, 0u);
}

}  // namespace
}  // namespace gdelt
