#include "analysis/tone.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "convert/converter.hpp"
#include "gen/emit.hpp"
#include "gen/generator.hpp"
#include "test_util.hpp"

namespace gdelt::analysis {
namespace {

using ::gdelt::testing::TempDir;

class ToneTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dirs_ = new TempDir("tone");
    auto cfg = gen::GeneratorConfig::Tiny();
    cfg.defect_missing_archives = 0;
    dataset_ = new gen::RawDataset(gen::GenerateDataset(cfg));
    ASSERT_TRUE(
        gen::EmitDataset(*dataset_, cfg, dirs_->path() + "/raw").ok());
    convert::ConvertOptions options;
    options.input_dir = dirs_->path() + "/raw";
    options.output_dir = dirs_->path() + "/db";
    ASSERT_TRUE(convert::ConvertDataset(options).ok());
    auto db = engine::Database::Load(dirs_->path() + "/db");
    ASSERT_TRUE(db.ok());
    db_ = new engine::Database(std::move(*db));
  }
  static void TearDownTestSuite() {
    delete db_;
    delete dataset_;
    delete dirs_;
  }

  static inline TempDir* dirs_ = nullptr;
  static inline gen::RawDataset* dataset_ = nullptr;
  static inline engine::Database* db_ = nullptr;
};

TEST_F(ToneTest, ConflictClassesAreNegative) {
  const auto bins = ToneByBin(*db_);
  // Classes 1/2 = cooperation (positive), 3/4 = conflict (negative).
  for (const std::size_t q : {1u, 2u}) {
    EXPECT_GT(bins[QuadToneBin(q)].Mean(), 0.0) << "quad " << q;
    EXPECT_GT(bins[QuadGoldsteinBin(q)].Mean(), 0.0) << "quad " << q;
    EXPECT_GT(bins[QuadToneBin(q)].count, 0u);
  }
  for (const std::size_t q : {3u, 4u}) {
    EXPECT_LT(bins[QuadToneBin(q)].Mean(), 0.0) << "quad " << q;
    EXPECT_LT(bins[QuadGoldsteinBin(q)].Mean(), 0.0) << "quad " << q;
  }
  // Every event is in exactly one class 1..4.
  std::uint64_t total = 0;
  for (std::size_t q = 1; q <= 4; ++q) total += bins[QuadToneBin(q)].count;
  EXPECT_EQ(total, db_->num_events());
}

TEST_F(ToneTest, ByCountryMatchesBruteForce) {
  const auto bins = ToneByBin(*db_);
  // Brute force for the USA (the event-richest country) from the events
  // table itself (tone values round-trip the wire format at 2 decimals).
  const auto country = db_->event_country();
  const auto tone = db_->events_tone();
  double sum = 0.0;
  std::uint64_t count = 0;
  for (std::size_t e = 0; e < db_->num_events(); ++e) {
    if (country[e] == country::kUSA) {
      sum += tone[e];
      ++count;
    }
  }
  ASSERT_GT(count, 0u);
  const MeanAccumulator& usa = bins[CountryToneBin(country::kUSA)];
  EXPECT_EQ(usa.count, count);
  EXPECT_NEAR(usa.Mean(), sum / count, 1e-9);
}

TEST_F(ToneTest, PartitionedBlocksMergeToTheWholeBits) {
  // Partitions own whole blocks; their sums, concatenated last partition
  // first, merge to the bits of the whole table at any partition count.
  ASSERT_GT(NumToneBlocks(*db_), 2u);
  const auto whole = ToneByBin(*db_);
  std::vector<CountryId> every(Countries().size());
  for (std::size_t c = 0; c < every.size(); ++c) {
    every[c] = static_cast<CountryId>(c);
  }
  for (const std::size_t of : {2u, 3u, 64u}) {
    const auto ranges = SplitRange(NumToneBlocks(*db_), of);
    std::vector<ToneEntry> all;
    for (auto it = ranges.rbegin(); it != ranges.rend(); ++it) {
      const auto part = ComputeToneBlocks(*db_, *it, every);
      all.insert(all.end(), part.begin(), part.end());
    }
    const auto merged = MergeToneBlocks(std::move(all));
    ASSERT_EQ(merged.size(), whole.size());
    for (std::size_t b = 0; b < whole.size(); ++b) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(merged[b].sum),
                std::bit_cast<std::uint64_t>(whole[b].sum))
          << "of " << of << " bin " << b;
      EXPECT_EQ(merged[b].count, whole[b].count) << "of " << of << " bin " << b;
    }
  }
}

TEST(MeanAccumulatorTest, EmptyIsZero) {
  MeanAccumulator acc;
  EXPECT_DOUBLE_EQ(acc.Mean(), 0.0);
}

}  // namespace
}  // namespace gdelt::analysis
