#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "analysis/coreport.hpp"
#include "analysis/country.hpp"
#include "analysis/delay.hpp"
#include "analysis/distributions.hpp"
#include "analysis/followreport.hpp"
#include "analysis/stats.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace gdelt::analysis {
namespace {

using ::gdelt::testing::TempDir;
using ::gdelt::testing::TestDbBuilder;

// ---------------------------------------------------------------------------
// Co-reporting on a hand-built scenario with known Jaccard values.

class CoReportScenario : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("coreport");
    TestDbBuilder builder;
    const auto e1 = builder.AddEvent(100);
    const auto e2 = builder.AddEvent(200);
    const auto e3 = builder.AddEvent(300);
    const auto e4 = builder.AddEvent(400);
    builder.AddMention(e1, 101, "a.com");
    builder.AddMention(e1, 102, "b.com");
    builder.AddMention(e2, 201, "a.com");
    builder.AddMention(e2, 202, "b.com");
    builder.AddMention(e2, 203, "c.com");
    builder.AddMention(e2, 204, "a.com");  // duplicate article: one event
    builder.AddMention(e3, 301, "a.com");
    builder.AddMention(e4, 401, "c.com");
    auto db = builder.Build(dir_->path());
    ASSERT_TRUE(db.ok());
    db_ = std::make_unique<engine::Database>(std::move(*db));
    a_ = *db_->sources().Find("a.com");
    b_ = *db_->sources().Find("b.com");
    c_ = *db_->sources().Find("c.com");
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<engine::Database> db_;
  std::uint32_t a_ = 0, b_ = 0, c_ = 0;
};

TEST_F(CoReportScenario, ExactCountsAndJaccard) {
  const CoReportMatrix m = ComputeCoReporting(*db_, engine::AllSources(*db_));
  // Diagonal: events per source.
  EXPECT_EQ(m.PairCount(a_, a_), 3u);
  EXPECT_EQ(m.PairCount(b_, b_), 2u);
  EXPECT_EQ(m.PairCount(c_, c_), 2u);
  // Pairs.
  EXPECT_EQ(m.PairCount(a_, b_), 2u);
  EXPECT_EQ(m.PairCount(a_, c_), 1u);
  EXPECT_EQ(m.PairCount(b_, c_), 1u);
  // Jaccard values.
  EXPECT_DOUBLE_EQ(m.Jaccard(a_, b_), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(m.Jaccard(a_, c_), 1.0 / 4.0);
  EXPECT_DOUBLE_EQ(m.Jaccard(b_, c_), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(m.Jaccard(a_, a_), 1.0);
}

TEST_F(CoReportScenario, MatrixIsSymmetric) {
  const CoReportMatrix m = ComputeCoReporting(*db_, engine::AllSources(*db_));
  for (std::size_t i = 0; i < m.size(); ++i) {
    for (std::size_t j = 0; j < m.size(); ++j) {
      EXPECT_EQ(m.PairCount(i, j), m.PairCount(j, i));
      EXPECT_GE(m.Jaccard(i, j), 0.0);
      EXPECT_LE(m.Jaccard(i, j), 1.0);
    }
  }
}

TEST_F(CoReportScenario, SubsetSelectsRows) {
  const std::vector<std::uint32_t> subset{c_, a_};
  const CoReportMatrix m = ComputeCoReporting(*db_, subset);
  ASSERT_EQ(m.size(), 2u);
  EXPECT_EQ(m.PairCount(0, 0), 2u);  // c
  EXPECT_EQ(m.PairCount(1, 1), 3u);  // a
  EXPECT_EQ(m.PairCount(0, 1), 1u);  // c & a
}

TEST_F(CoReportScenario, DenseAndSparseFlavorsAgree) {
  const auto all = engine::AllSources(*db_);
  const CoReportMatrix tiled = ComputeCoReporting(*db_, all);
  TiledCoReportOptions force_sparse;
  force_sparse.dense_partials_budget_bytes = 0;
  const CoReportMatrix tiled_sparse =
      ComputeCoReporting(*db_, all, kWholeRange, nullptr, force_sparse);
  EXPECT_EQ(tiled.counts(), tiled_sparse.counts());
}

// ---------------------------------------------------------------------------
// Follow-reporting with exact expected f values.

TEST(FollowReportTest, HandComputedScenario) {
  TempDir dir("follow");
  TestDbBuilder builder;
  const auto e = builder.AddEvent(100);
  builder.AddMention(e, 101, "a.com");
  builder.AddMention(e, 102, "b.com");
  builder.AddMention(e, 103, "a.com");
  builder.AddMention(e, 102, "b.com");  // same interval as b's first
  auto db = builder.Build(dir.path());
  ASSERT_TRUE(db.ok());
  const auto a = *db->sources().Find("a.com");
  const auto b = *db->sources().Find("b.com");
  const std::vector<std::uint32_t> subset{a, b};
  const FollowReportMatrix m = ComputeFollowReporting(*db, subset);
  ASSERT_EQ(m.n, 2u);
  EXPECT_EQ(m.articles[0], 2u);
  EXPECT_EQ(m.articles[1], 2u);
  EXPECT_EQ(m.FollowCount(0, 1), 2u);  // both b articles follow a@101
  EXPECT_EQ(m.FollowCount(1, 0), 1u);  // a@103 follows b@102
  EXPECT_EQ(m.FollowCount(0, 0), 1u);  // a@103 follows a@101
  EXPECT_EQ(m.FollowCount(1, 1), 0u);  // same-interval b does not follow b
  EXPECT_DOUBLE_EQ(m.F(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(m.F(1, 0), 0.5);
  EXPECT_DOUBLE_EQ(m.ColumnSum(0), 1.0);  // 0.5 (self) + 0.5 (b leads)
}

TEST(FollowReportTest, SingleMentionEventsContributeNothing) {
  TempDir dir("follow1");
  TestDbBuilder builder;
  for (int i = 0; i < 5; ++i) {
    const auto e = builder.AddEvent(100 + i * 10);
    builder.AddMention(e, 101 + i * 10, "a.com");
  }
  auto db = builder.Build(dir.path());
  ASSERT_TRUE(db.ok());
  const std::vector<std::uint32_t> subset{*db->sources().Find("a.com")};
  const FollowReportMatrix m = ComputeFollowReporting(*db, subset);
  EXPECT_EQ(m.FollowCount(0, 0), 0u);
  EXPECT_EQ(m.articles[0], 5u);
}

// ---------------------------------------------------------------------------
// Country co-reporting.

TEST(CountryCoReportTest, HandComputedJaccard) {
  TempDir dir("ccr");
  TestDbBuilder builder;
  // E1: US + UK press; E2: US only; E3: UK + AU; E4: US + UK.
  const auto e1 = builder.AddEvent(100);
  const auto e2 = builder.AddEvent(200);
  const auto e3 = builder.AddEvent(300);
  const auto e4 = builder.AddEvent(400);
  builder.AddMention(e1, 101, "x.com");
  builder.AddMention(e1, 102, "y.co.uk");
  builder.AddMention(e2, 201, "x.com");
  builder.AddMention(e3, 301, "y.co.uk");
  builder.AddMention(e3, 302, "z.com.au");
  builder.AddMention(e4, 401, "w.com");
  builder.AddMention(e4, 402, "y.co.uk");
  auto db = builder.Build(dir.path());
  ASSERT_TRUE(db.ok());
  const CountryCoReport r = ComputeCountryCoReporting(*db);
  EXPECT_EQ(r.EventCount(country::kUSA), 3u);
  EXPECT_EQ(r.EventCount(country::kUK), 3u);
  EXPECT_EQ(r.EventCount(country::kAustralia), 1u);
  EXPECT_EQ(r.Pair(country::kUSA, country::kUK), 2u);
  EXPECT_EQ(r.Pair(country::kUK, country::kAustralia), 1u);
  EXPECT_EQ(r.Pair(country::kUSA, country::kAustralia), 0u);
  EXPECT_DOUBLE_EQ(r.Jaccard(country::kUSA, country::kUK), 2.0 / 4.0);
  EXPECT_DOUBLE_EQ(r.Jaccard(country::kUK, country::kAustralia), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(r.Jaccard(country::kUSA, country::kAustralia), 0.0);
  // Symmetry.
  for (std::size_t c = 0; c < r.n; ++c) {
    for (std::size_t d = 0; d < r.n; ++d) {
      EXPECT_EQ(r.Pair(c, d), r.Pair(d, c));
    }
  }
}

// ---------------------------------------------------------------------------
// Delay statistics.

TEST(DelayTest, PerSourceStatsExact) {
  TempDir dir("delay");
  TestDbBuilder builder;
  // One source, delays 1, 3, 5, 7, 100.
  for (const std::int64_t d : {1, 3, 5, 7, 100}) {
    const auto e = builder.AddEvent(1000);
    builder.AddMention(e, 1000 + d, "s.com");
  }
  // A second source with one negative (defective) delay and one valid.
  const auto bad = builder.AddEvent(5000);
  builder.AddMention(bad, 4990, "t.com");  // event in the "future"
  builder.AddMention(bad, 5004, "t.com");
  auto db = builder.Build(dir.path());
  ASSERT_TRUE(db.ok());
  const auto stats = PerSourceDelayStats(*db, engine::AllSources(*db));
  const auto s = *db->sources().Find("s.com");
  const auto t = *db->sources().Find("t.com");
  EXPECT_EQ(stats[s].article_count, 5u);
  EXPECT_EQ(stats[s].min, 1);
  EXPECT_EQ(stats[s].max, 100);
  EXPECT_EQ(stats[s].median, 5);
  EXPECT_DOUBLE_EQ(stats[s].average, (1 + 3 + 5 + 7 + 100) / 5.0);
  // Negative delay excluded.
  EXPECT_EQ(stats[t].article_count, 1u);
  EXPECT_EQ(stats[t].min, 4);
  EXPECT_EQ(stats[t].max, 4);
}

TEST(DelayTest, MetricHistogramBinsByPowersOfTwo) {
  std::vector<DelayStats> stats(3);
  stats[0] = {10, 1, 96, 20.0, 16};   // median 16 -> bin 5
  stats[1] = {10, 0, 10, 3.0, 2};     // median 2 -> bin 2
  stats[2] = {0, 0, 0, 0.0, 0};       // no articles: skipped
  const auto hist = DelayMetricHistogram(stats, DelayMetric::kMedian, 8);
  std::uint64_t total = 0;
  for (const auto v : hist) total += v;
  EXPECT_EQ(total, 2u);
  EXPECT_EQ(hist[5], 1u);  // 16 -> 1 + log2(16) = 5
  EXPECT_EQ(hist[2], 1u);  // 2 -> 1 + log2(2) = 2
}

TEST(DelayTest, QuarterlyAverageAndMedian) {
  TempDir dir("delayq");
  TestDbBuilder builder;
  // All in one quarter (interval 1,600,000 ~ 2015-07); delays 2, 4, 12.
  const std::int64_t base = 1600000;
  for (const std::int64_t d : {2, 4, 12}) {
    const auto e = builder.AddEvent(base);
    builder.AddMention(e, base + d, "s.com");
  }
  auto db = builder.Build(dir.path());
  ASSERT_TRUE(db.ok());
  const QuarterlyDelay q = QuarterlyDelayStats(*db);
  ASSERT_EQ(q.average.size(), 1u);
  EXPECT_DOUBLE_EQ(q.average[0], 6.0);
  EXPECT_EQ(q.median[0], 4);
}

TEST(DelayTest, MedianEvenCountIsMeanOfMiddlePair) {
  TempDir dir("delayeven");
  TestDbBuilder builder;
  // Delays 1, 2, 10, 20: the true median is floor((2 + 10) / 2) = 6 —
  // a bare nth_element at n/2 would report the upper middle element (10).
  for (const std::int64_t d : {1, 2, 10, 20}) {
    const auto e = builder.AddEvent(1000);
    builder.AddMention(e, 1000 + d, "s.com");
  }
  auto db = builder.Build(dir.path());
  ASSERT_TRUE(db.ok());
  const auto stats = PerSourceDelayStats(*db, engine::AllSources(*db));
  const auto s = *db->sources().Find("s.com");
  EXPECT_EQ(stats[s].median, 6);
  // The quarterly path must agree with the per-source path.
  const QuarterlyDelay q = QuarterlyDelayStats(*db);
  ASSERT_EQ(q.median.size(), 1u);
  EXPECT_EQ(q.median[0], 6);
}

TEST(DelayTest, MedianEvenCountFloorsHalfSteps) {
  TempDir dir("delayfloor");
  TestDbBuilder builder;
  // Delays 1, 2: the mean of the middle pair is 1.5; the integral median
  // floors to 1.
  for (const std::int64_t d : {1, 2}) {
    const auto e = builder.AddEvent(1000);
    builder.AddMention(e, 1000 + d, "s.com");
  }
  auto db = builder.Build(dir.path());
  ASSERT_TRUE(db.ok());
  const auto stats = PerSourceDelayStats(*db, engine::AllSources(*db));
  const auto s = *db->sources().Find("s.com");
  EXPECT_EQ(stats[s].median, 1);
  const QuarterlyDelay q = QuarterlyDelayStats(*db);
  ASSERT_EQ(q.median.size(), 1u);
  EXPECT_EQ(q.median[0], 1);
}

TEST(DelayTest, MedianOddCountIsMiddleElement) {
  TempDir dir("delayodd");
  TestDbBuilder builder;
  for (const std::int64_t d : {3, 9, 27}) {
    const auto e = builder.AddEvent(1000);
    builder.AddMention(e, 1000 + d, "s.com");
  }
  auto db = builder.Build(dir.path());
  ASSERT_TRUE(db.ok());
  const auto stats = PerSourceDelayStats(*db, engine::AllSources(*db));
  const auto s = *db->sources().Find("s.com");
  EXPECT_EQ(stats[s].median, 9);
  const QuarterlyDelay q = QuarterlyDelayStats(*db);
  ASSERT_EQ(q.median.size(), 1u);
  EXPECT_EQ(q.median[0], 9);
}

TEST(DelayTest, SlowArticleCounting) {
  TempDir dir("delays");
  TestDbBuilder builder;
  const std::int64_t base = 1600000;
  for (const std::int64_t d : {50, 96, 97, 500}) {
    const auto e = builder.AddEvent(base);
    builder.AddMention(e, base + d, "s.com");
  }
  auto db = builder.Build(dir.path());
  ASSERT_TRUE(db.ok());
  const auto slow = SlowArticlesPerQuarter(*db);
  std::uint64_t total = 0;
  for (const auto v : slow.values) total += v;
  EXPECT_EQ(total, 2u) << "only delays strictly > 96 count";
}

// ---------------------------------------------------------------------------
// Distributions.

TEST(DistributionTest, EventSizeHistogram) {
  TempDir dir("dist");
  TestDbBuilder builder;
  const auto e1 = builder.AddEvent(100);  // 3 articles
  const auto e2 = builder.AddEvent(200);  // 1 article
  const auto e3 = builder.AddEvent(300);  // 1 article
  builder.AddMention(e1, 101, "a.com");
  builder.AddMention(e1, 102, "b.com");
  builder.AddMention(e1, 103, "c.com");
  builder.AddMention(e2, 201, "a.com");
  builder.AddMention(e3, 301, "b.com");
  auto db = builder.Build(dir.path());
  ASSERT_TRUE(db.ok());
  const auto hist = EventSizeDistribution(*db);
  ASSERT_EQ(hist.size(), 4u);
  EXPECT_EQ(hist[1], 2u);
  EXPECT_EQ(hist[2], 0u);
  EXPECT_EQ(hist[3], 1u);
  EXPECT_DOUBLE_EQ(AverageArticlesPerEvent(*db), 5.0 / 3.0);
}

TEST(DistributionTest, PowerLawMleRecoversAlpha) {
  Xoshiro256 rng(55);
  const double true_alpha = 2.35;
  std::vector<std::uint64_t> samples(200000);
  for (auto& s : samples) {
    const double u = UniformDouble(rng);
    s = static_cast<std::uint64_t>(
        std::pow(1.0 - u, -1.0 / (true_alpha - 1.0)));
    s = std::max<std::uint64_t>(s, 1);
  }
  // Discreteness biases the continuous MLE at xmin=1; with xmin=8 the
  // estimate should land near the true exponent.
  const double alpha = PowerLawAlphaMle(samples, 8);
  EXPECT_NEAR(alpha, true_alpha, 0.12);
}

TEST(DistributionTest, MleEdgeCases) {
  EXPECT_DOUBLE_EQ(PowerLawAlphaMle({}, 1), 0.0);
  const std::vector<std::uint64_t> one{5};
  EXPECT_DOUBLE_EQ(PowerLawAlphaMle(one, 1), 0.0);
  EXPECT_DOUBLE_EQ(PowerLawAlphaMle(one, 0), 0.0);
}

// ---------------------------------------------------------------------------
// Dataset statistics.

TEST(StatsTest, TableOneFields) {
  TempDir dir("stats");
  TestDbBuilder builder;
  const auto e1 = builder.AddEvent(100);
  const auto e2 = builder.AddEvent(150);
  builder.AddMention(e1, 101, "a.com");
  builder.AddMention(e1, 110, "b.com");
  builder.AddMention(e1, 120, "a.com");
  builder.AddMention(e2, 151, "b.com");
  auto db = builder.Build(dir.path());
  ASSERT_TRUE(db.ok());
  const DatasetStatistics s = ComputeDatasetStatistics(*db);
  EXPECT_EQ(s.sources, 2u);
  EXPECT_EQ(s.events, 2u);
  EXPECT_EQ(s.articles, 4u);
  EXPECT_EQ(s.capture_intervals, 51u);  // 101..151 inclusive
  EXPECT_EQ(s.min_articles_per_event, 1u);
  EXPECT_EQ(s.max_articles_per_event, 3u);
  EXPECT_DOUBLE_EQ(s.weighted_avg_articles_per_event, 2.0);
  EXPECT_NE(s.ToText().find("Articles"), std::string::npos);
}

}  // namespace
}  // namespace gdelt::analysis
