// Morsel-size invariance: every aggregate kernel on the morsel pool must
// produce bitwise-identical results at the smallest morsel size (64 rows)
// and at one whole-range morsel, and both must equal the kernel's serial
// range flavor run over the whole input. Integer partials merge in slot
// order (sums commute across morsels); float statistics are confined
// wholly within one source, so even doubles compare with EXPECT_EQ.
#include <gtest/gtest.h>

#include <vector>

#include "analysis/coreport.hpp"
#include "analysis/delay.hpp"
#include "analysis/firstreport.hpp"
#include "analysis/followreport.hpp"
#include "convert/converter.hpp"
#include "engine/queries.hpp"
#include "gen/emit.hpp"
#include "gen/generator.hpp"
#include "parallel/morsel.hpp"
#include "test_util.hpp"

namespace gdelt::analysis {
namespace {

using ::gdelt::testing::TempDir;

/// The two morsel sizes under test: the clamp floor, and the clamp
/// ceiling (larger than the Tiny dataset, so one morsel covers it all).
constexpr std::size_t kMorselSizes[] = {64, std::size_t{1} << 22};

class MorselInvarianceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dirs_ = new TempDir("morsel_invariance");
    auto cfg = gen::GeneratorConfig::Tiny();
    const auto dataset = gen::GenerateDataset(cfg);
    ASSERT_TRUE(gen::EmitDataset(dataset, cfg, dirs_->path() + "/raw").ok());
    convert::ConvertOptions options;
    options.input_dir = dirs_->path() + "/raw";
    options.output_dir = dirs_->path() + "/db";
    ASSERT_TRUE(convert::ConvertDataset(options).ok());
    auto db = engine::Database::Load(dirs_->path() + "/db");
    ASSERT_TRUE(db.ok());
    db_ = new engine::Database(std::move(*db));
    ASSERT_LT(db_->num_events(), kMorselSizes[1]);
  }
  static void TearDownTestSuite() {
    parallel::SetMorselRows(0);
    delete db_;
    delete dirs_;
  }

  /// Runs `kernel` once per morsel size and returns the results.
  template <typename Kernel>
  static auto AtEachMorselSize(Kernel&& kernel) {
    std::vector<decltype(kernel())> out;
    for (const std::size_t rows : kMorselSizes) {
      parallel::SetMorselRows(rows);
      out.push_back(kernel());
    }
    parallel::SetMorselRows(0);
    return out;
  }

  static inline TempDir* dirs_ = nullptr;
  static inline engine::Database* db_ = nullptr;
};

TEST_F(MorselInvarianceTest, PerSourceDelayStats) {
  const auto serial = PerSourceDelayStatsStrided(*db_, 0, 1);
  for (const auto& pool :
       AtEachMorselSize([] { return PerSourceDelayStats(*db_); })) {
    ASSERT_EQ(pool.size(), serial.size());
    for (std::size_t s = 0; s < serial.size(); ++s) {
      EXPECT_EQ(pool[s].article_count, serial[s].article_count);
      EXPECT_EQ(pool[s].min, serial[s].min);
      EXPECT_EQ(pool[s].max, serial[s].max);
      EXPECT_EQ(pool[s].average, serial[s].average);  // bitwise double
      EXPECT_EQ(pool[s].median, serial[s].median);
    }
  }
}

TEST_F(MorselInvarianceTest, FollowReporting) {
  const auto top = engine::TopSourcesByArticles(*db_, 10);
  const auto serial =
      ComputeFollowReportingOnEvents(*db_, top, 0, db_->num_events());
  for (const auto& pool :
       AtEachMorselSize([&] { return ComputeFollowReporting(*db_, top); })) {
    EXPECT_EQ(pool.n, serial.n);
    EXPECT_EQ(pool.follow_counts, serial.follow_counts);
    EXPECT_EQ(pool.articles, serial.articles);
  }
}

TEST_F(MorselInvarianceTest, FirstReports) {
  const auto serial = ComputeFirstReportsOnEvents(*db_, 0, db_->num_events(),
                                                  /*histogram_bins=*/18);
  for (const auto& pool : AtEachMorselSize(
           [] { return ComputeFirstReports(*db_, /*histogram_bins=*/18); })) {
    EXPECT_EQ(pool.first_reports, serial.first_reports);
    EXPECT_EQ(pool.first_delay_histogram, serial.first_delay_histogram);
    EXPECT_EQ(pool.events_broken_within_hour, serial.events_broken_within_hour);
    EXPECT_EQ(pool.repeat_events, serial.repeat_events);
    EXPECT_EQ(pool.repeat_articles, serial.repeat_articles);
  }
}

TEST_F(MorselInvarianceTest, CoReportingDenseAndSparse) {
  const auto top = engine::TopSourcesByArticles(*db_, 12);
  const auto serial =
      ComputeCoReportingOnEvents(*db_, top, 0, db_->num_events());
  for (const bool force_sparse : {false, true}) {
    SCOPED_TRACE(force_sparse ? "sparse flavor" : "dense flavor");
    TiledCoReportOptions options;
    if (force_sparse) options.dense_partials_budget_bytes = 1;
    for (const auto& pool : AtEachMorselSize(
             [&] { return ComputeCoReporting(*db_, top, options); })) {
      EXPECT_EQ(pool.counts(), serial.counts());
    }
  }
}

}  // namespace
}  // namespace gdelt::analysis
