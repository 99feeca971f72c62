// Robustness sweeps: randomly corrupted inputs must produce clean errors,
// never crashes, hangs or silent bad data. Also covers the small util
// pieces (hashing, timers) not exercised elsewhere.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string_view>

#include "columnar/table.hpp"
#include "io/file.hpp"
#include "io/zipstore.hpp"
#include "test_util.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace gdelt {
namespace {

using testing::TempDir;

std::string MakeValidZip(const TempDir& dir) {
  const std::string path = dir.path() + "/v.zip";
  ZipWriter writer;
  EXPECT_TRUE(writer.Open(path).ok());
  EXPECT_TRUE(writer.AddEntry("a.csv", std::string(2000, 'a')).ok());
  EXPECT_TRUE(writer.AddEntry("b.csv", "short").ok());
  EXPECT_TRUE(writer.Finish().ok());
  auto bytes = ReadWholeFile(path);
  EXPECT_TRUE(bytes.ok());
  return *bytes;
}

TEST(ZipRobustnessTest, RandomSingleByteCorruptionNeverCrashes) {
  TempDir dir("zipfuzz");
  const std::string valid = MakeValidZip(dir);
  Xoshiro256 rng(2024);
  for (int trial = 0; trial < 500; ++trial) {
    std::string corrupt = valid;
    const std::size_t pos = UniformBelow(rng, corrupt.size());
    corrupt[pos] ^= static_cast<char>(1 + UniformBelow(rng, 255));
    auto reader = ZipReader::Open(corrupt);
    if (!reader.ok()) continue;  // clean rejection
    // If the directory parsed, entry extraction must either succeed with
    // CRC-verified bytes or fail cleanly.
    for (std::size_t e = 0; e < reader->entries().size(); ++e) {
      auto data = reader->ReadEntry(e);
      (void)data;  // any Status is fine; no crash is the property
    }
  }
}

TEST(ZipRobustnessTest, RandomTruncationNeverCrashes) {
  TempDir dir("ziptrunc");
  const std::string valid = MakeValidZip(dir);
  Xoshiro256 rng(2025);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t cut = UniformBelow(rng, valid.size());
    auto reader = ZipReader::Open(valid.substr(0, cut));
    if (reader.ok()) {
      for (std::size_t e = 0; e < reader->entries().size(); ++e) {
        (void)reader->ReadEntry(e);
      }
    }
  }
}

std::string MakeValidTable(const TempDir& dir) {
  Table t;
  auto& a = t.AddColumn("a", ColumnType::kU64);
  auto& s = t.AddColumn("s", ColumnType::kStr);
  Xoshiro256 rng(7);
  for (int i = 0; i < 500; ++i) {
    a.Append<std::uint64_t>(rng());
    s.AppendString(std::to_string(rng() % 1000));
  }
  const std::string path = dir.path() + "/t.tbl";
  EXPECT_TRUE(t.WriteToFile(path).ok());
  auto bytes = ReadWholeFile(path);
  EXPECT_TRUE(bytes.ok());
  return *bytes;
}

TEST(TableRobustnessTest, RandomCorruptionIsDetectedOrRejected) {
  TempDir dir("tablefuzz");
  const std::string valid = MakeValidTable(dir);
  Xoshiro256 rng(2026);
  const std::string path = dir.path() + "/fuzz.tbl";
  for (int trial = 0; trial < 300; ++trial) {
    std::string corrupt = valid;
    const std::size_t pos = UniformBelow(rng, corrupt.size());
    corrupt[pos] ^= static_cast<char>(1 + UniformBelow(rng, 255));
    ASSERT_TRUE(WriteWholeFile(path, corrupt).ok());
    auto loaded = Table::ReadFromFile(path);
    // The trailing CRC covers every byte before it, so ANY flip there is
    // detected; flips inside the CRC itself or the trailer magic also
    // fail. Loading must therefore always error.
    EXPECT_FALSE(loaded.ok()) << "flip at " << pos << " went undetected";
  }
}

TEST(TableRobustnessTest, RandomTruncationAlwaysRejected) {
  TempDir dir("tabletrunc");
  const std::string valid = MakeValidTable(dir);
  Xoshiro256 rng(2027);
  const std::string path = dir.path() + "/trunc.tbl";
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t cut = UniformBelow(rng, valid.size());
    ASSERT_TRUE(WriteWholeFile(path, valid.substr(0, cut)).ok());
    EXPECT_FALSE(Table::ReadFromFile(path).ok()) << "cut=" << cut;
  }
}

// A table with every segment shape: fixed widths 1, 2, 8 (rows not a
// multiple of 8, so payloads end off-boundary) and two string columns
// with empty and non-empty rows.
std::string MakeMixedTable(const TempDir& dir) {
  Table t;
  auto& a = t.AddColumn("a", ColumnType::kU64);
  auto& b = t.AddColumn("b", ColumnType::kU8);
  auto& c = t.AddColumn("c", ColumnType::kU16);
  auto& s = t.AddColumn("s", ColumnType::kStr);
  auto& u = t.AddColumn("u", ColumnType::kStr);
  auto& x = t.AddColumn("x", ColumnType::kF64);
  Xoshiro256 rng(8);
  for (int i = 0; i < 37; ++i) {
    a.Append<std::uint64_t>(rng());
    b.Append<std::uint8_t>(static_cast<std::uint8_t>(i));
    c.Append<std::uint16_t>(static_cast<std::uint16_t>(rng()));
    s.AppendString(i % 5 == 0 ? "" : "row" + std::to_string(i));
    u.AppendString(std::string(1 + i % 7, 'u'));
    x.Append<double>(static_cast<double>(i) / 3.0);
  }
  const std::string path = dir.path() + "/mixed.tbl";
  EXPECT_TRUE(t.WriteToFile(path).ok());
  auto bytes = ReadWholeFile(path);
  EXPECT_TRUE(bytes.ok());
  return *bytes;
}

/// True when [p, p + n) lies inside `map`.
bool Inside(std::string_view map, const void* p, std::size_t n) {
  const auto at = reinterpret_cast<std::uintptr_t>(p);
  const auto base = reinterpret_cast<std::uintptr_t>(map.data());
  return at >= base && n <= map.size() && at - base <= map.size() - n;
}

template <typename T>
bool ValuesInside(const Column& col, std::string_view map) {
  const auto values = col.Values<T>();
  return Inside(map, values.data(), values.size_bytes());
}

/// Every view a loaded table hands out (each Values span, each StringAt)
/// lies inside the table's mapping.
void ExpectViewsInsideMapping(const Table& table, std::size_t mutant) {
  const std::string_view map = table.mapped_bytes();
  for (const auto& [name, col] : table.columns()) {
    ASSERT_EQ(col.size(), table.num_rows()) << name << " mutant " << mutant;
    bool inside = true;
    switch (col.type()) {
      case ColumnType::kU8:
        inside = ValuesInside<std::uint8_t>(col, map);
        break;
      case ColumnType::kU16:
        inside = ValuesInside<std::uint16_t>(col, map);
        break;
      case ColumnType::kU32:
        inside = ValuesInside<std::uint32_t>(col, map);
        break;
      case ColumnType::kU64:
        inside = ValuesInside<std::uint64_t>(col, map);
        break;
      case ColumnType::kI64:
        inside = ValuesInside<std::int64_t>(col, map);
        break;
      case ColumnType::kI32:
        inside = ValuesInside<std::int32_t>(col, map);
        break;
      case ColumnType::kF64:
        inside = ValuesInside<double>(col, map);
        break;
      case ColumnType::kStr:
        inside = Inside(map, col.offsets().data(), col.offsets().size_bytes());
        for (std::size_t i = 0; inside && i < col.size(); ++i) {
          const std::string_view v = col.StringAt(i);
          inside = Inside(map, v.data(), v.size());
        }
        break;
    }
    EXPECT_TRUE(inside) << "column " << name << " of mutant " << mutant
                        << " views outside the mapping";
  }
}

// Each mutant is resealed, so it passes the checksum and the descriptor
// checks carry the safety: a load either fails with DataLoss or yields a
// table whose every view stays inside the mapping. ASan/UBSan in CI turn
// any stray read or misaligned load into a failure as well.
TEST(TableRobustnessTest, ChecksumValidMutantsFailCleanlyOrStayInBounds) {
  TempDir dir("tablemut");
  const std::string valid = MakeMixedTable(dir);
  const std::string path = dir.path() + "/mut.tbl";
  const auto mutants = testing::TableFileMutations(valid, 2030, 3000);
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < mutants.size(); ++i) {
    ASSERT_TRUE(WriteWholeFile(path, mutants[i]).ok());
    auto loaded = Table::ReadFromFile(path);
    if (!loaded.ok()) {
      ++rejected;
      EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss) << i;
      EXPECT_EQ(loaded.status().message().find("checksum"),
                std::string::npos)
          << "mutant " << i << " did not reach the parser";
      continue;
    }
    ExpectViewsInsideMapping(*loaded, i);
  }
  // The driver exercises both outcomes: most mutants are rejected by the
  // parser, and the ones that only touch payload bytes still load.
  EXPECT_GT(rejected, mutants.size() / 2);
  EXPECT_LT(rejected, mutants.size());
}

// Planted descriptor and offset forgeries, each resealed so that only the
// named check can reject it.
class PlantedTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("tableplant");
    valid_ = MakeMixedTable(*dir_);
    layout_ = testing::ParseTableFileLayout(valid_);
  }

  /// Loads `valid_` with one field overwritten; returns the error message
  /// ("" if the table loaded).
  std::string LoadForged(testing::TableFileLayout::Field field,
                         std::uint64_t value) {
    const std::string path = dir_->path() + "/forged.tbl";
    EXPECT_TRUE(WriteWholeFile(path, testing::ForgeTableField(
                                         valid_, layout_, field, value))
                    .ok());
    auto loaded = Table::ReadFromFile(path);
    if (loaded.ok()) return "";
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
    return loaded.status().message();
  }

  /// The offset (k = 0) or length (k = 1) field of segment `seg`.
  testing::TableFileLayout::Field Descriptor(std::size_t seg, int k) const {
    return layout_.descriptor_fields[2 * seg + static_cast<std::size_t>(k)];
  }

  /// File offset of segment `seg`.
  std::uint64_t SegmentOffset(std::size_t seg) const {
    return layout_.segments[seg].first;
  }

  std::unique_ptr<TempDir> dir_;
  std::string valid_;
  testing::TableFileLayout layout_;
};

TEST_F(PlantedTableTest, MisalignedOffset) {
  EXPECT_NE(LoadForged(Descriptor(0, 0), SegmentOffset(0) + 8)
                .find("not 64-byte aligned"),
            std::string::npos);
}

TEST_F(PlantedTableTest, OverlappingSegments) {
  EXPECT_NE(LoadForged(Descriptor(1, 0), SegmentOffset(0)).find("overlaps"),
            std::string::npos);
}

TEST_F(PlantedTableTest, OffsetPlusLengthPastTheBody) {
  const std::size_t last = layout_.segments.size() - 1;
  const std::uint64_t past = (layout_.body_size + 63) / 64 * 64;
  EXPECT_NE(LoadForged(Descriptor(last, 0), past).find("past the body"),
            std::string::npos);
}

TEST_F(PlantedTableTest, LengthThatOverflows) {
  // offset + length wraps around 2^64 to a small number; the check must
  // not be fooled by the wrap.
  const std::size_t last = layout_.segments.size() - 1;
  const std::uint64_t wrap =
      std::numeric_limits<std::uint64_t>::max() - SegmentOffset(last) + 2;
  EXPECT_NE(LoadForged(Descriptor(last, 1), wrap).find("past the body"),
            std::string::npos);
}

TEST_F(PlantedTableTest, NonMonotoneStringOffsets) {
  const std::uint64_t offsets =
      SegmentOffset(layout_.string_offset_segments[0]);
  // Row 2's start moves past row 3's start.
  EXPECT_NE(LoadForged({offsets + 3 * 8, 8}, 1000).find("not monotone"),
            std::string::npos);
}

TEST_F(PlantedTableTest, LastOffsetIsNotTheCharsLength) {
  const std::size_t seg = layout_.string_offset_segments[0];
  const std::size_t end = layout_.segments[seg].second;
  const std::size_t chars = layout_.segments[seg + 1].second -
                            layout_.segments[seg + 1].first;
  // One short of the chars length: still monotone (the last row is not
  // empty), so only the chars-length check can catch it.
  EXPECT_NE(LoadForged({end - 8, 8}, chars - 1).find("expected"),
            std::string::npos);
}

TEST_F(PlantedTableTest, FormatV2IsRejected) {
  EXPECT_NE(
      LoadForged(layout_.header_fields[0], 2).find("re-run gdelt_convert"),
      std::string::npos);
}

TEST_F(PlantedTableTest, TheUnforgedFileLoads) {
  EXPECT_EQ(LoadForged(layout_.header_fields[0], 3), "");
}

class DatabaseRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("dbfuzz");
    testing::TestDbBuilder builder;
    Xoshiro256 rng(11);
    for (int i = 0; i < 40; ++i) {
      const auto id = builder.AddEvent(static_cast<std::int64_t>(i * 7));
      const int mentions = 1 + static_cast<int>(UniformBelow(rng, 4));
      for (int m = 0; m < mentions; ++m) {
        builder.AddMention(id, static_cast<std::int64_t>(i * 7 + m + 1),
                           "src" + std::to_string(UniformBelow(rng, 8)));
      }
    }
    ASSERT_TRUE(builder.WriteTo(dir_->path()).ok());
    ASSERT_TRUE(engine::Database::Load(dir_->path()).ok());
  }

  std::unique_ptr<TempDir> dir_;
};

TEST_F(DatabaseRobustnessTest, LoaderRejectsBitFlippedTables) {
  // Any single-byte corruption in any of the engine's input files must be
  // caught by the integrity footer — the loader errors, never serves bad
  // rows, never crashes.
  Xoshiro256 rng(2028);
  for (const char* name : {"events.tbl", "mentions.tbl", "sources.dict"}) {
    const std::string path = dir_->path() + "/" + std::string(name);
    const auto valid = ReadWholeFile(path);
    ASSERT_TRUE(valid.ok());
    for (int trial = 0; trial < 40; ++trial) {
      std::string corrupt = *valid;
      const std::size_t pos = UniformBelow(rng, corrupt.size());
      corrupt[pos] ^= static_cast<char>(1 + UniformBelow(rng, 255));
      ASSERT_TRUE(WriteWholeFile(path, corrupt).ok());
      EXPECT_FALSE(engine::Database::Load(dir_->path()).ok())
          << name << " flip at " << pos << " went undetected";
    }
    ASSERT_TRUE(WriteWholeFile(path, *valid).ok());
  }
  EXPECT_TRUE(engine::Database::Load(dir_->path()).ok());
}

TEST_F(DatabaseRobustnessTest, LoaderRejectsTruncatedTables) {
  // Torn writes and partial copies surface as short files; the length in
  // the integrity footer catches every cut, including cuts that remove
  // the footer itself.
  Xoshiro256 rng(2029);
  for (const char* name : {"events.tbl", "mentions.tbl"}) {
    const std::string path = dir_->path() + "/" + std::string(name);
    const auto valid = ReadWholeFile(path);
    ASSERT_TRUE(valid.ok());
    for (int trial = 0; trial < 30; ++trial) {
      const std::size_t cut = UniformBelow(rng, valid->size());
      ASSERT_TRUE(WriteWholeFile(path, valid->substr(0, cut)).ok());
      EXPECT_FALSE(engine::Database::Load(dir_->path()).ok())
          << name << " cut at " << cut << " went undetected";
    }
    ASSERT_TRUE(WriteWholeFile(path, *valid).ok());
  }
  EXPECT_TRUE(engine::Database::Load(dir_->path()).ok());
}

// ---------------------------------------------------------------------------
// util odds and ends

TEST(HashTest, Fnv1aKnownVectorsAndStability) {
  // FNV-1a 64 reference values.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ull);
  // Compile-time evaluation works (used in switch-on-hash patterns).
  static_assert(Fnv1a64("events.tbl") == Fnv1a64("events.tbl"));
}

TEST(HashTest, MixAvalanches) {
  // Single-bit input changes must flip many output bits.
  const std::uint64_t a = MixU64(0x1234);
  const std::uint64_t b = MixU64(0x1235);
  int diff = 0;
  for (int bit = 0; bit < 64; ++bit) {
    if (((a ^ b) >> bit) & 1) ++diff;
  }
  EXPECT_GT(diff, 16);
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

TEST(TimerTest, MeasuresElapsedTime) {
  WallTimer timer;
  // Burn a little CPU deterministically.
  volatile std::uint64_t sink = 0;
  for (int i = 0; i < 2000000; ++i) {
    sink = sink + static_cast<std::uint64_t>(i);
  }
  EXPECT_GT(timer.ElapsedSeconds(), 0.0);
  EXPECT_GE(timer.ElapsedMicros(), 0u);
  const double before = timer.ElapsedSeconds();
  timer.Reset();
  EXPECT_LE(timer.ElapsedSeconds(), before);
}

}  // namespace
}  // namespace gdelt
