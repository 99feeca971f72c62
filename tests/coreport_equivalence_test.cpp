// Golden equivalence suite for the co-reporting kernel.
//
// Both flavors of the tiled kernel (dense per-slot partials and the
// forced-sparse hashed runs) must reproduce a naive serial reference
// bit for bit — on generator data, for subset and full-source
// selections, at 1 and N threads, and at several merge tile widths.
#include "analysis/coreport.hpp"

#include <gtest/gtest.h>

#include "convert/converter.hpp"
#include "engine/queries.hpp"
#include "gen/emit.hpp"
#include "gen/generator.hpp"
#include "parallel/morsel.hpp"
#include "test_util.hpp"

namespace gdelt::analysis {
namespace {

using ::gdelt::testing::TempDir;

/// Converts a Tiny generated dataset once for the whole suite.
class CoReportEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dirs_ = new TempDir("coreport_equiv");
    auto cfg = gen::GeneratorConfig::Tiny();
    const auto dataset = gen::GenerateDataset(cfg);
    ASSERT_TRUE(gen::EmitDataset(dataset, cfg, dirs_->path() + "/raw").ok());
    convert::ConvertOptions options;
    options.input_dir = dirs_->path() + "/raw";
    options.output_dir = dirs_->path() + "/db";
    ASSERT_TRUE(convert::ConvertDataset(options).ok());
    auto db = engine::Database::Load(dirs_->path() + "/db");
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = new engine::Database(std::move(*db));
  }
  static void TearDownTestSuite() {
    delete db_;
    delete dirs_;
  }

  /// Naive reference: a serial double loop over each event's distinct
  /// sources, counting every selected (a, b) pair into both triangles.
  static std::vector<std::uint32_t> NaiveCounts(
      std::span<const std::uint32_t> subset) {
    const std::size_t n = subset.size();
    std::vector<std::int64_t> slot(db_->num_sources(), -1);
    for (std::size_t k = 0; k < n; ++k) {
      slot[subset[k]] = static_cast<std::int64_t>(k);
    }
    std::vector<std::uint32_t> counts(n * n, 0);
    const auto& index = db_->event_distinct_sources();
    for (std::uint32_t e = 0; e < db_->num_events(); ++e) {
      for (const std::uint32_t a : index.ValuesOf(e)) {
        for (const std::uint32_t b : index.ValuesOf(e)) {
          if (slot[a] < 0 || slot[b] < 0) continue;
          ++counts[static_cast<std::size_t>(slot[a]) * n +
                   static_cast<std::size_t>(slot[b])];
        }
      }
    }
    return counts;
  }

  /// Asserts both tiled flavors reproduce the naive counts.
  static void ExpectMatchesNaive(std::span<const std::uint32_t> subset,
                                 std::size_t tile_elems = 1u << 14) {
    const auto reference = NaiveCounts(subset);
    TiledCoReportOptions dense;
    dense.tile_elems = tile_elems;
    EXPECT_EQ(ComputeCoReporting(*db_, subset, kWholeRange, nullptr, dense)
                  .counts(),
              reference);
    TiledCoReportOptions sparse = dense;
    sparse.dense_partials_budget_bytes = 0;  // force the sparse flavor
    EXPECT_EQ(ComputeCoReporting(*db_, subset, kWholeRange, nullptr, sparse)
                  .counts(),
              reference);
  }

  static inline TempDir* dirs_ = nullptr;
  static inline engine::Database* db_ = nullptr;
};

TEST_F(CoReportEquivalenceTest, SubsetsOfSeveralSizes) {
  for (const std::size_t k : {1u, 3u, 10u, 50u}) {
    SCOPED_TRACE("top-" + std::to_string(k));
    ExpectMatchesNaive(engine::TopSourcesByArticles(*db_, k));
  }
}

TEST_F(CoReportEquivalenceTest, AllSources) {
  ExpectMatchesNaive(engine::AllSources(*db_));
}

TEST_F(CoReportEquivalenceTest, EmptySubsetIsEmptyMatrix) {
  EXPECT_EQ(ComputeCoReporting(*db_, {}).size(), 0u);
}

TEST_F(CoReportEquivalenceTest, SingleAndManyThreads) {
  const auto top = engine::TopSourcesByArticles(*db_, 20);
  for (const int workers : {1, 4}) {
    SCOPED_TRACE("pool workers=" + std::to_string(workers));
    parallel::MorselPool pool(workers);
    const parallel::ScopedPool use_pool(pool);
    ExpectMatchesNaive(top);
    ExpectMatchesNaive(engine::AllSources(*db_));
  }
}

TEST_F(CoReportEquivalenceTest, ManyTileWidths) {
  const auto top = engine::TopSourcesByArticles(*db_, 30);
  for (const std::size_t tile : {1u, 7u, 64u, 100000u}) {
    SCOPED_TRACE("tile_elems=" + std::to_string(tile));
    ExpectMatchesNaive(top, tile);
  }
}

TEST_F(CoReportEquivalenceTest, RepeatedInvocationsAreBitwiseStable) {
  // The memoized index is built once; repeated queries must not drift.
  const auto top = engine::TopSourcesByArticles(*db_, 10);
  const auto first = ComputeCoReporting(*db_, top);
  for (int rep = 0; rep < 3; ++rep) {
    EXPECT_EQ(first.counts(), ComputeCoReporting(*db_, top).counts());
  }
}

}  // namespace
}  // namespace gdelt::analysis
