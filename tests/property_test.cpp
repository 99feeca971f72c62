// Property-style parameterized sweeps across modules: serialization
// round-trips over all column types and sizes, ZIP payload sweeps,
// calendar monotonicity, and generator invariants across presets/seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "columnar/table.hpp"
#include "gen/generator.hpp"
#include "gtime/timestamp.hpp"
#include "io/file.hpp"
#include "io/zipstore.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace gdelt {
namespace {

using testing::TempDir;

// ---------------------------------------------------------------------------
// Table round-trip over (column type, row count).

class TableRoundTripTest
    : public ::testing::TestWithParam<std::tuple<ColumnType, std::size_t>> {};

void FillColumn(Column& col, std::size_t rows, Xoshiro256& rng) {
  for (std::size_t i = 0; i < rows; ++i) {
    switch (col.type()) {
      case ColumnType::kU8:
        col.Append<std::uint8_t>(static_cast<std::uint8_t>(rng()));
        break;
      case ColumnType::kU16:
        col.Append<std::uint16_t>(static_cast<std::uint16_t>(rng()));
        break;
      case ColumnType::kU32:
        col.Append<std::uint32_t>(static_cast<std::uint32_t>(rng()));
        break;
      case ColumnType::kU64:
        col.Append<std::uint64_t>(rng());
        break;
      case ColumnType::kI64:
        col.Append<std::int64_t>(static_cast<std::int64_t>(rng()));
        break;
      case ColumnType::kI32:
        col.Append<std::int32_t>(static_cast<std::int32_t>(rng()));
        break;
      case ColumnType::kF64:
        col.Append<double>(UniformDouble(rng) * 1e6 - 5e5);
        break;
      case ColumnType::kStr: {
        const std::size_t len = UniformBelow(rng, 40);
        std::string s;
        for (std::size_t k = 0; k < len; ++k) {
          s += static_cast<char>('a' + UniformBelow(rng, 26));
        }
        col.AppendString(s);
        break;
      }
    }
  }
}

bool ColumnsEqual(const Column& a, const Column& b) {
  if (a.type() != b.type() || a.size() != b.size()) return false;
  if (a.type() == ColumnType::kStr) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a.StringAt(i) != b.StringAt(i)) return false;
    }
    return true;
  }
  return std::ranges::equal(a.bytes(), b.bytes());
}

TEST_P(TableRoundTripTest, WriteReadPreservesEverything) {
  const auto [type, rows] = GetParam();
  TempDir dir("proproundtrip");
  Xoshiro256 rng(static_cast<std::uint64_t>(rows) * 31 +
                 static_cast<std::uint64_t>(type));
  Table table;
  FillColumn(table.AddColumn("data", type), rows, rng);
  FillColumn(table.AddColumn("extra", ColumnType::kU32), rows, rng);
  const std::string path = dir.path() + "/t.tbl";
  ASSERT_TRUE(table.WriteToFile(path).ok());
  auto loaded = Table::ReadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(ColumnsEqual(table.GetColumn("data"),
                           loaded->GetColumn("data")));
  EXPECT_TRUE(ColumnsEqual(table.GetColumn("extra"),
                           loaded->GetColumn("extra")));
}

INSTANTIATE_TEST_SUITE_P(
    AllTypesAndSizes, TableRoundTripTest,
    ::testing::Combine(::testing::Values(ColumnType::kU8, ColumnType::kU16,
                                         ColumnType::kU32, ColumnType::kU64,
                                         ColumnType::kI64, ColumnType::kF64,
                                         ColumnType::kStr, ColumnType::kI32),
                       ::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{257},
                                         std::size_t{10000})));

// ---------------------------------------------------------------------------
// ZIP round-trip over payload sizes.

class ZipSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ZipSizeTest, RoundTripsPayload) {
  const std::size_t size = GetParam();
  TempDir dir("propzip");
  Xoshiro256 rng(size + 1);
  std::string payload(size, '\0');
  for (auto& c : payload) c = static_cast<char>(rng());
  const std::string path = dir.path() + "/p.zip";
  ZipWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  ASSERT_TRUE(writer.AddEntry("payload.bin", payload).ok());
  ASSERT_TRUE(writer.Finish().ok());
  auto bytes = ReadWholeFile(path);
  ASSERT_TRUE(bytes.ok());
  auto reader = ZipReader::Open(*bytes);
  ASSERT_TRUE(reader.ok());
  auto out = reader->ReadEntry("payload.bin");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, payload);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ZipSizeTest,
                         ::testing::Values(0, 1, 100, 4096, 1 << 17));

// ---------------------------------------------------------------------------
// Calendar properties over random timestamps.

TEST(CalendarPropertyTest, QuarterIsMonotoneInTime) {
  Xoshiro256 rng(99);
  for (int trial = 0; trial < 3000; ++trial) {
    const std::int64_t a =
        1420070400 + static_cast<std::int64_t>(UniformBelow(rng, 157000000));
    const std::int64_t b =
        1420070400 + static_cast<std::int64_t>(UniformBelow(rng, 157000000));
    const std::int64_t lo = std::min(a, b);
    const std::int64_t hi = std::max(a, b);
    EXPECT_LE(QuarterOfUnixSeconds(lo), QuarterOfUnixSeconds(hi));
    EXPECT_LE(IntervalOfUnixSeconds(lo), IntervalOfUnixSeconds(hi));
  }
}

TEST(CalendarPropertyTest, TimestampFormatParseInverse) {
  Xoshiro256 rng(101);
  for (int trial = 0; trial < 3000; ++trial) {
    const std::int64_t t =
        1420070400 + static_cast<std::int64_t>(UniformBelow(rng, 157000000));
    const CivilDateTime civil = FromUnixSeconds(t);
    const auto reparsed = ParseGdeltTimestamp(FormatGdeltTimestamp(civil));
    ASSERT_TRUE(reparsed.ok());
    EXPECT_EQ(reparsed.value(), civil);
    EXPECT_EQ(ToGdeltTimestamp(reparsed.value()), ToGdeltTimestamp(civil));
  }
}

TEST(CalendarPropertyTest, IntervalOfItsOwnStartIsIdentity) {
  Xoshiro256 rng(103);
  for (int trial = 0; trial < 3000; ++trial) {
    const auto id = static_cast<IntervalId>(UniformBelow(rng, 3000000));
    EXPECT_EQ(IntervalOfCivil(IntervalStartCivil(id)), id);
  }
}

// ---------------------------------------------------------------------------
// Generator invariants across seeds.

class GeneratorSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorSeedTest, InvariantsHold) {
  auto cfg = gen::GeneratorConfig::Tiny();
  cfg.seed = GetParam();
  const gen::RawDataset ds = gen::GenerateDataset(cfg);
  ASSERT_GT(ds.events.size(), 0u);
  ASSERT_GT(ds.mentions.size(), 0u);
  // Volume conservation.
  std::uint64_t article_sum = 0;
  for (const auto& ev : ds.events) {
    EXPECT_GE(ev.num_articles, 1u);
    article_sum += ev.num_articles;
  }
  EXPECT_EQ(article_sum, ds.mentions.size());
  // Sortedness and window containment.
  EXPECT_TRUE(std::is_sorted(
      ds.mentions.begin(), ds.mentions.end(),
      [](const gen::MentionRecord& a, const gen::MentionRecord& b) {
        return a.mention_interval < b.mention_interval;
      }));
  for (const auto& m : ds.mentions) {
    EXPECT_GE(m.mention_interval, ds.first_interval);
    EXPECT_LT(m.mention_interval, ds.end_interval);
    EXPECT_LT(m.source_index, ds.world.sources.size());
  }
  // Event ids unique.
  std::vector<std::uint64_t> ids;
  ids.reserve(ds.events.size());
  for (const auto& ev : ds.events) ids.push_back(ev.global_event_id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorSeedTest,
                         ::testing::Values(1, 42, 777, 123456789));

}  // namespace
}  // namespace gdelt
