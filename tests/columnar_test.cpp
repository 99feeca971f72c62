#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "columnar/csr.hpp"
#include "columnar/dictionary.hpp"
#include "columnar/table.hpp"
#include "io/file.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace gdelt {
namespace {

using testing::TempDir;

TEST(ColumnTest, FixedWidthAppendAndRead) {
  Column col(ColumnType::kU32);
  col.Append<std::uint32_t>(1);
  col.Append<std::uint32_t>(0xFFFFFFFF);
  ASSERT_EQ(col.size(), 2u);
  const auto values = col.Values<std::uint32_t>();
  EXPECT_EQ(values[0], 1u);
  EXPECT_EQ(values[1], 0xFFFFFFFFu);
}

TEST(ColumnTest, AllFixedTypes) {
  Column u8(ColumnType::kU8);
  u8.Append<std::uint8_t>(200);
  Column u16(ColumnType::kU16);
  u16.Append<std::uint16_t>(60000);
  Column u64(ColumnType::kU64);
  u64.Append<std::uint64_t>(1ull << 60);
  Column i64(ColumnType::kI64);
  i64.Append<std::int64_t>(-42);
  Column f64(ColumnType::kF64);
  f64.Append<double>(2.718);
  EXPECT_EQ(u8.Values<std::uint8_t>()[0], 200);
  EXPECT_EQ(u16.Values<std::uint16_t>()[0], 60000);
  EXPECT_EQ(u64.Values<std::uint64_t>()[0], 1ull << 60);
  EXPECT_EQ(i64.Values<std::int64_t>()[0], -42);
  EXPECT_DOUBLE_EQ(f64.Values<double>()[0], 2.718);
}

TEST(ColumnTest, StringColumn) {
  Column col(ColumnType::kStr);
  col.AppendString("alpha");
  col.AppendString("");
  col.AppendString("gamma");
  ASSERT_EQ(col.size(), 3u);
  EXPECT_EQ(col.StringAt(0), "alpha");
  EXPECT_EQ(col.StringAt(1), "");
  EXPECT_EQ(col.StringAt(2), "gamma");
}

TEST(ColumnTest, ResizeFixedZeroFills) {
  Column col(ColumnType::kI64);
  col.ResizeFixed(5);
  ASSERT_EQ(col.size(), 5u);
  for (const auto v : col.Values<std::int64_t>()) EXPECT_EQ(v, 0);
}

TEST(TableTest, ValidateCatchesRaggedColumns) {
  Table t;
  t.AddColumn("a", ColumnType::kU32).Append<std::uint32_t>(1);
  t.AddColumn("b", ColumnType::kU32);
  EXPECT_FALSE(t.Validate().ok());
}

TEST(TableTest, FindAndHasColumn) {
  Table t;
  t.AddColumn("x", ColumnType::kU8);
  EXPECT_TRUE(t.HasColumn("x"));
  EXPECT_FALSE(t.HasColumn("y"));
  EXPECT_NE(t.FindColumn("x"), nullptr);
  EXPECT_EQ(t.FindColumn("y"), nullptr);
}

Table MakeSampleTable(std::size_t rows) {
  Table t;
  auto& ids = t.AddColumn("id", ColumnType::kU64);
  auto& vals = t.AddColumn("val", ColumnType::kF64);
  auto& names = t.AddColumn("name", ColumnType::kStr);
  Xoshiro256 rng(99);
  for (std::size_t i = 0; i < rows; ++i) {
    ids.Append<std::uint64_t>(i * 7);
    vals.Append<double>(static_cast<double>(i) * 0.5);
    names.AppendString(i % 3 == 0 ? "" : "name" + std::to_string(i));
  }
  return t;
}

TEST(TableIoTest, WriteReadRoundTrip) {
  TempDir dir("table");
  const std::string path = dir.path() + "/t.tbl";
  const Table original = MakeSampleTable(1000);
  ASSERT_TRUE(original.WriteToFile(path).ok());

  auto loaded = Table::ReadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_rows(), 1000u);
  EXPECT_EQ(loaded->num_columns(), 3u);
  const auto ids = loaded->GetColumn("id").Values<std::uint64_t>();
  const auto vals = loaded->GetColumn("val").Values<double>();
  for (std::size_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(ids[i], i * 7);
    EXPECT_DOUBLE_EQ(vals[i], static_cast<double>(i) * 0.5);
    EXPECT_EQ(loaded->GetColumn("name").StringAt(i),
              original.GetColumn("name").StringAt(i));
  }
}

TEST(TableIoTest, EmptyTableRoundTrips) {
  TempDir dir("table0");
  const std::string path = dir.path() + "/t.tbl";
  Table t;
  t.AddColumn("a", ColumnType::kU32);
  t.AddColumn("s", ColumnType::kStr);
  ASSERT_TRUE(t.WriteToFile(path).ok());
  auto loaded = Table::ReadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_rows(), 0u);
}

TEST(TableIoTest, TruncationDetected) {
  TempDir dir("tablet");
  const std::string path = dir.path() + "/t.tbl";
  ASSERT_TRUE(MakeSampleTable(100).WriteToFile(path).ok());
  auto bytes = ReadWholeFile(path);
  ASSERT_TRUE(bytes.ok());
  for (const std::size_t cut : {std::size_t{1}, bytes->size() / 2,
                                bytes->size() - 1}) {
    const std::string truncated_path = dir.path() + "/trunc.tbl";
    ASSERT_TRUE(
        WriteWholeFile(truncated_path, bytes->substr(0, cut)).ok());
    EXPECT_EQ(Table::ReadFromFile(truncated_path).status().code(),
              StatusCode::kDataLoss)
        << "cut=" << cut;
  }
}

TEST(TableIoTest, BitFlipDetectedByChecksum) {
  TempDir dir("tablex");
  const std::string path = dir.path() + "/t.tbl";
  ASSERT_TRUE(MakeSampleTable(100).WriteToFile(path).ok());
  auto bytes = ReadWholeFile(path);
  ASSERT_TRUE(bytes.ok());
  // Flip one payload bit somewhere in the middle.
  std::string corrupt = *bytes;
  corrupt[corrupt.size() / 2] ^= 0x10;
  const std::string corrupt_path = dir.path() + "/c.tbl";
  ASSERT_TRUE(WriteWholeFile(corrupt_path, corrupt).ok());
  EXPECT_EQ(Table::ReadFromFile(corrupt_path).status().code(),
            StatusCode::kDataLoss);
}

TEST(TableIoTest, GarbageFileRejected) {
  TempDir dir("tableg");
  const std::string path = dir.path() + "/g.tbl";
  ASSERT_TRUE(WriteWholeFile(path, std::string(500, 'q')).ok());
  EXPECT_FALSE(Table::ReadFromFile(path).ok());
}

// The loader binds columns in place: every column's data lies inside the
// table's own mapping, on a 64-byte boundary, and stays readable after
// the table moves.
TEST(TableIoTest, LoadedColumnsViewTheMappingZeroCopy) {
  TempDir dir("tablezc");
  const std::string path = dir.path() + "/t.tbl";
  ASSERT_TRUE(MakeSampleTable(1001).WriteToFile(path).ok());
  auto loaded = Table::ReadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  const std::string_view map = loaded->mapped_bytes();
  ASSERT_FALSE(map.empty());
  const auto base = reinterpret_cast<std::uintptr_t>(map.data());
  const auto expect_mapped = [&](const void* p, std::size_t n,
                                 const std::string& what) {
    const auto at = reinterpret_cast<std::uintptr_t>(p);
    EXPECT_EQ(at % 64, 0u) << what;
    EXPECT_GE(at, base) << what;
    EXPECT_LE(at - base + n, map.size()) << what;
  };
  for (const auto& [name, col] : loaded->columns()) {
    if (col.type() == ColumnType::kStr) {
      expect_mapped(col.offsets().data(), col.offsets().size_bytes(),
                    name + " offsets");
      expect_mapped(col.chars().data(), col.chars().size(), name + " chars");
    } else {
      expect_mapped(col.bytes().data(), col.bytes().size(), name);
    }
  }
  EXPECT_EQ(loaded->MemoryBytes(),
            MakeSampleTable(1001).MemoryBytes());  // mapped bytes count

  const Table moved = std::move(*loaded);
  EXPECT_EQ(moved.mapped_bytes().data(), map.data());
  EXPECT_EQ(moved.GetColumn("id").Values<std::uint64_t>()[1000], 7000u);
  EXPECT_EQ(moved.GetColumn("name").StringAt(1000), "name1000");
}

// A table built in memory owns its columns and maps nothing.
TEST(TableIoTest, BuiltTablesMapNothing) {
  EXPECT_TRUE(MakeSampleTable(3).mapped_bytes().empty());
}

// The forgeries below overwrite one header field and reseal the footer
// (testing::ForgeTableField), so they pass the checksum gate and reach the
// parser. This is how a corrupt-yet-CRC-consistent (or malicious) file
// looks to ReadFromFile; the parser must reject it from its own bounds
// checks, not by luck of the checksum.
struct Forgery {
  std::string valid;
  testing::TableFileLayout layout;

  explicit Forgery(const std::string& path) {
    EXPECT_TRUE(MakeSampleTable(100).WriteToFile(path).ok());
    auto bytes = ReadWholeFile(path);
    EXPECT_TRUE(bytes.ok());
    valid = *bytes;
    layout = testing::ParseTableFileLayout(valid);
  }

  Status LoadWith(testing::TableFileLayout::Field field, std::uint64_t value,
                  const std::string& path) const {
    EXPECT_TRUE(
        WriteWholeFile(path, testing::ForgeTableField(valid, layout, field,
                                                      value))
            .ok());
    return Table::ReadFromFile(path).status();
  }
};

// Header fields: version, num_columns, num_rows, then per-column fields.
constexpr std::size_t kNumColumnsField = 1;
constexpr std::size_t kNumRowsField = 2;

// A file claiming 4 billion columns is 100+ GiB of descriptor
// allocations if the parser trusts the count. Must fail cleanly (no
// allocation, no crash) because only a few hundred bytes follow.
TEST(TableIoTest, HugeColumnCountRejectedBeforeAllocating) {
  TempDir dir("tablehc");
  const std::string path = dir.path() + "/t.tbl";
  const Forgery forgery(path);
  EXPECT_EQ(forgery
                .LoadWith(forgery.layout.header_fields[kNumColumnsField],
                          0xFFFFFFFFu, path)
                .code(),
            StatusCode::kDataLoss);
}

// Row counts near 2^64 make (num_rows + 1) * 8 wrap around, so the
// expected segment lengths would be computed from a wrapped product. Both
// the overflow-adjacent and the merely-huge case must be DataLoss.
TEST(TableIoTest, HugeRowCountRejected) {
  TempDir dir("tablehr");
  const std::string path = dir.path() + "/t.tbl";
  const Forgery forgery(path);
  for (const std::uint64_t rows :
       {std::numeric_limits<std::uint64_t>::max() - 1,
        std::uint64_t{1} << 60}) {
    EXPECT_EQ(forgery
                  .LoadWith(forgery.layout.header_fields[kNumRowsField],
                            rows, path)
                  .code(),
              StatusCode::kDataLoss)
        << "rows=" << rows;
  }
}

// A string column whose chars descriptor claims more bytes than the file
// holds must be rejected before a view is bound.
TEST(TableIoTest, OversizedCharsFieldRejected) {
  TempDir dir("tablesc");
  const std::string path = dir.path() + "/t.tbl";
  const Forgery forgery(path);
  // The chars segment follows the offsets segment of the one string
  // column; its length field is the second field of its descriptor.
  const std::size_t chars = forgery.layout.string_offset_segments[0] + 1;
  const auto chars_length = forgery.layout.descriptor_fields[2 * chars + 1];
  EXPECT_EQ(forgery.LoadWith(chars_length, 1ull << 62, path).code(),
            StatusCode::kDataLoss);
}

TEST(DictionaryTest, DenseFirstSeenIds) {
  StringDictionary dict;
  EXPECT_EQ(dict.GetOrAdd("a"), 0u);
  EXPECT_EQ(dict.GetOrAdd("b"), 1u);
  EXPECT_EQ(dict.GetOrAdd("a"), 0u);
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.At(1), "b");
  EXPECT_EQ(*dict.Find("a"), 0u);
  EXPECT_FALSE(dict.Find("c").has_value());
}

TEST(DictionaryTest, SurvivesRehashWithShortStrings) {
  // Regression: short (SSO) strings must keep valid index keys as the
  // container grows.
  StringDictionary dict;
  for (int i = 0; i < 10000; ++i) {
    dict.GetOrAdd(std::to_string(i));
  }
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(*dict.Find(std::to_string(i)), static_cast<std::uint32_t>(i));
  }
}

TEST(DictionaryTest, FileRoundTrip) {
  TempDir dir("dict");
  StringDictionary dict;
  dict.GetOrAdd("herald0.co.uk");
  dict.GetOrAdd("star0.com");
  dict.GetOrAdd("");
  const std::string path = dir.path() + "/d.dict";
  ASSERT_TRUE(dict.WriteToFile(path).ok());
  auto loaded = StringDictionary::ReadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 3u);
  EXPECT_EQ(loaded->At(0), "herald0.co.uk");
  EXPECT_EQ(*loaded->Find("star0.com"), 1u);
  EXPECT_EQ(*loaded->Find(""), 2u);
}

TEST(CsrTest, GroupsRowsByKey) {
  const std::vector<std::uint32_t> keys{2, 0, 2, 1, 2, 0};
  const CsrIndex csr = BuildCsrIndex(keys, 3);
  ASSERT_EQ(csr.num_keys(), 3u);
  EXPECT_EQ(csr.CountOf(0), 2u);
  EXPECT_EQ(csr.CountOf(1), 1u);
  EXPECT_EQ(csr.CountOf(2), 3u);
  const auto rows0 = csr.RowsOf(0);
  EXPECT_EQ(std::vector<std::uint64_t>(rows0.begin(), rows0.end()),
            (std::vector<std::uint64_t>{1, 5}));
  const auto rows2 = csr.RowsOf(2);
  EXPECT_EQ(std::vector<std::uint64_t>(rows2.begin(), rows2.end()),
            (std::vector<std::uint64_t>{0, 2, 4}));
}

TEST(CsrTest, EmptyKeysAndEmptyGroups) {
  const CsrIndex csr = BuildCsrIndex({}, 4);
  EXPECT_EQ(csr.num_keys(), 4u);
  for (std::uint32_t k = 0; k < 4; ++k) EXPECT_EQ(csr.CountOf(k), 0u);
}

TEST(CsrTest, LargeRandomRoundTrip) {
  Xoshiro256 rng(123);
  const std::size_t n = 100000;
  const std::size_t num_keys = 500;
  std::vector<std::uint32_t> keys(n);
  for (auto& k : keys) {
    k = static_cast<std::uint32_t>(UniformBelow(rng, num_keys));
  }
  const CsrIndex csr = BuildCsrIndex(keys, num_keys);
  std::uint64_t total = 0;
  for (std::uint32_t k = 0; k < num_keys; ++k) {
    std::uint64_t prev = 0;
    bool first = true;
    for (const std::uint64_t row : csr.RowsOf(k)) {
      ASSERT_EQ(keys[row], k);
      if (!first) {
        ASSERT_GT(row, prev) << "rows must stay ascending";
      }
      prev = row;
      first = false;
      ++total;
    }
  }
  EXPECT_EQ(total, n);
}

}  // namespace
}  // namespace gdelt
