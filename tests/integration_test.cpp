// End-to-end pipeline test: generate -> emit -> convert -> load -> analyze,
// cross-checking every engine/analysis result against brute-force
// references computed directly from the generator's in-memory records.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "analysis/coreport.hpp"
#include "analysis/country.hpp"
#include "analysis/delay.hpp"
#include "analysis/distributions.hpp"
#include "analysis/followreport.hpp"
#include "analysis/stats.hpp"
#include "convert/converter.hpp"
#include "engine/filter.hpp"
#include "gen/emit.hpp"
#include "gen/generator.hpp"
#include "test_util.hpp"

namespace gdelt {
namespace {

using ::gdelt::testing::TempDir;

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dirs_ = new TempDir("pipeline");
    cfg_ = gen::GeneratorConfig::Tiny();
    // No missing archives so converter totals exactly equal ground truth.
    cfg_.defect_missing_archives = 0;
    dataset_ = new gen::RawDataset(gen::GenerateDataset(cfg_));
    ASSERT_TRUE(
        gen::EmitDataset(*dataset_, cfg_, dirs_->path() + "/raw").ok());
    convert::ConvertOptions options;
    options.input_dir = dirs_->path() + "/raw";
    options.output_dir = dirs_->path() + "/db";
    auto report = convert::ConvertDataset(options);
    ASSERT_TRUE(report.ok());
    auto db = engine::Database::Load(dirs_->path() + "/db");
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = new engine::Database(std::move(*db));

    // Dictionary id of each world source (only sources with articles).
    world_to_dict_.assign(dataset_->world.sources.size(), UINT32_MAX);
    for (std::size_t i = 0; i < dataset_->world.sources.size(); ++i) {
      if (const auto id =
              db_->sources().Find(dataset_->world.sources[i].domain)) {
        world_to_dict_[i] = *id;
      }
    }
  }
  static void TearDownTestSuite() {
    delete db_;
    delete dataset_;
    delete dirs_;
  }

  static inline TempDir* dirs_ = nullptr;
  static inline gen::GeneratorConfig cfg_;
  static inline gen::RawDataset* dataset_ = nullptr;
  static inline engine::Database* db_ = nullptr;
  static inline std::vector<std::uint32_t> world_to_dict_;
};

TEST_F(PipelineTest, TableOneStatisticsMatchTruth) {
  const auto stats = analysis::ComputeDatasetStatistics(*db_);
  EXPECT_EQ(stats.events, dataset_->truth.num_events);
  EXPECT_EQ(stats.articles, dataset_->truth.num_mentions);
  EXPECT_EQ(stats.min_articles_per_event,
            dataset_->truth.min_articles_per_event);
  EXPECT_EQ(stats.max_articles_per_event,
            dataset_->truth.max_articles_per_event);
  EXPECT_NEAR(stats.weighted_avg_articles_per_event,
              static_cast<double>(dataset_->truth.num_mentions) /
                  static_cast<double>(dataset_->truth.num_events),
              1e-12);
}

TEST_F(PipelineTest, EventSizeDistributionMatchesBruteForce) {
  std::map<std::uint32_t, std::uint64_t> expected;
  for (const auto& ev : dataset_->events) ++expected[ev.num_articles];
  const auto hist = analysis::EventSizeDistribution(*db_);
  const std::uint64_t largest = hist.empty() ? 0 : hist.rbegin()->first;
  for (std::uint64_t k = 1; k <= largest; ++k) {
    const auto it = expected.find(static_cast<std::uint32_t>(k));
    const auto got = hist.find(k);
    EXPECT_EQ(got == hist.end() ? 0 : got->second,
              it == expected.end() ? 0 : it->second)
        << "articles=" << k;
  }
}

TEST_F(PipelineTest, QuarterlyArticleSeriesMatchesBruteForce) {
  const auto activity = engine::QuarterlyActivity(*db_);
  const engine::QuarterSeries series{activity.first_quarter,
                                     activity.articles};
  std::map<QuarterId, std::uint64_t> expected;
  for (const auto& m : dataset_->mentions) {
    ++expected[QuarterOfUnixSeconds(
        IntervalStartUnixSeconds(m.mention_interval))];
  }
  for (std::size_t q = 0; q < series.values.size(); ++q) {
    const QuarterId qid = series.first_quarter + static_cast<QuarterId>(q);
    const auto it = expected.find(qid);
    EXPECT_EQ(series.values[q], it == expected.end() ? 0 : it->second)
        << QuarterLabel(qid);
  }
}

TEST_F(PipelineTest, CoReportingDiagonalMatchesBruteForce) {
  // Brute force: distinct events per world source.
  std::map<std::uint32_t, std::set<std::uint64_t>> events_of;  // world idx
  for (const auto& m : dataset_->mentions) {
    events_of[m.source_index].insert(m.global_event_id);
  }
  const auto matrix =
      analysis::ComputeCoReporting(*db_, engine::AllSources(*db_));
  for (const auto& [world_idx, events] : events_of) {
    const std::uint32_t dict = world_to_dict_[world_idx];
    ASSERT_NE(dict, UINT32_MAX);
    EXPECT_EQ(matrix.PairCount(dict, dict), events.size());
  }
}

TEST_F(PipelineTest, CoReportingPairSample) {
  // Validate a handful of off-diagonal cells against brute force.
  const auto top = engine::TopSourcesByArticles(*db_, 4);
  const auto matrix = analysis::ComputeCoReporting(*db_, top);
  // dict id -> world idx
  std::map<std::uint32_t, std::uint32_t> dict_to_world;
  for (std::size_t w = 0; w < world_to_dict_.size(); ++w) {
    if (world_to_dict_[w] != UINT32_MAX) {
      dict_to_world[world_to_dict_[w]] = static_cast<std::uint32_t>(w);
    }
  }
  std::map<std::uint32_t, std::set<std::uint64_t>> events_of;
  for (const auto& m : dataset_->mentions) {
    events_of[m.source_index].insert(m.global_event_id);
  }
  for (std::size_t i = 0; i < top.size(); ++i) {
    for (std::size_t j = 0; j < top.size(); ++j) {
      const auto& ei = events_of[dict_to_world[top[i]]];
      const auto& ej = events_of[dict_to_world[top[j]]];
      std::uint64_t common = 0;
      for (const auto e : ei) common += ej.count(e);
      EXPECT_EQ(matrix.PairCount(i, j), common) << i << "," << j;
    }
  }
}

TEST_F(PipelineTest, CrossReportingMatchesBruteForce) {
  const auto report = engine::CountryCrossReporting(*db_);
  // Brute force from generator records.
  std::map<std::uint64_t, CountryId> event_location;
  for (const auto& ev : dataset_->events) {
    event_location[ev.global_event_id] = ev.location;
  }
  std::vector<std::uint64_t> expected(report.num_countries *
                                          report.num_countries,
                                      0);
  for (const auto& m : dataset_->mentions) {
    const CountryId pub = dataset_->world.sources[m.source_index].country;
    const CountryId rep = event_location[m.global_event_id];
    if (pub == kNoCountry || rep == kNoCountry) continue;
    ++expected[static_cast<std::size_t>(rep) * report.num_countries + pub];
  }
  EXPECT_EQ(report.counts, expected);
}

TEST_F(PipelineTest, PerSourceDelayMatchesBruteForce) {
  const auto stats =
      analysis::PerSourceDelayStats(*db_, engine::AllSources(*db_));
  // Brute force for the three most productive sources.
  const auto top = engine::TopSourcesByArticles(*db_, 3);
  std::map<std::uint64_t, std::int64_t> event_time;
  for (const auto& ev : dataset_->events) {
    event_time[ev.global_event_id] = ev.event_interval;
  }
  for (const auto dict_id : top) {
    std::vector<std::int64_t> delays;
    const std::string domain(db_->source_domain(dict_id));
    for (const auto& m : dataset_->mentions) {
      if (dataset_->world.sources[m.source_index].domain != domain) continue;
      const std::int64_t d =
          m.mention_interval - event_time[m.global_event_id];
      if (d >= 0) delays.push_back(d);
    }
    std::sort(delays.begin(), delays.end());
    ASSERT_FALSE(delays.empty());
    EXPECT_EQ(stats[dict_id].article_count, delays.size());
    EXPECT_EQ(stats[dict_id].min, delays.front());
    EXPECT_EQ(stats[dict_id].max, delays.back());
    // True median: even counts take the floored mean of the two middle
    // elements, matching PerSourceDelayStats.
    const std::size_t n = delays.size();
    const std::int64_t expected_median =
        n % 2 != 0 ? delays[n / 2]
                   : delays[n / 2 - 1] +
                         (delays[n / 2] - delays[n / 2 - 1]) / 2;
    EXPECT_EQ(stats[dict_id].median, expected_median);
  }
}

TEST_F(PipelineTest, FollowReportingDiagonalNeedsRepeats) {
  const auto top = engine::TopSourcesByArticles(*db_, 10);
  const auto matrix = analysis::ComputeFollowReporting(*db_, top);
  // f values are valid fractions and the column sums are positive for
  // heavily co-reporting group members.
  for (std::size_t i = 0; i < matrix.n; ++i) {
    for (std::size_t j = 0; j < matrix.n; ++j) {
      EXPECT_GE(matrix.F(i, j), 0.0);
      EXPECT_LE(matrix.F(i, j), 1.0);
    }
  }
  double total = 0.0;
  for (std::size_t j = 0; j < matrix.n; ++j) total += matrix.ColumnSum(j);
  EXPECT_GT(total, 0.0);
}

TEST_F(PipelineTest, CountryCoReportingSymmetricAndBounded) {
  const auto r = analysis::ComputeCountryCoReporting(*db_);
  std::uint64_t usa_events_bruteforce = 0;
  std::map<std::uint64_t, bool> seen;
  for (const auto& m : dataset_->mentions) {
    if (dataset_->world.sources[m.source_index].country == country::kUSA &&
        !seen[m.global_event_id]) {
      seen[m.global_event_id] = true;
      ++usa_events_bruteforce;
    }
  }
  EXPECT_EQ(r.EventCount(country::kUSA), usa_events_bruteforce);
}

TEST_F(PipelineTest, UrlsSurviveConversion) {
  // Spot-check that mention URLs round-trip through the binary format.
  const auto& url_col = *db_;
  (void)url_col;
  const auto top = engine::TopReportedEvents(*db_, 1);
  ASSERT_FALSE(top.empty());
  const std::string_view url = db_->event_source_url(top[0].event_row);
  EXPECT_TRUE(url.find("https://") == 0) << url;
}

}  // namespace
}  // namespace gdelt
