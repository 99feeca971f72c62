#include <gtest/gtest.h>

#include <vector>

#include "io/crc32.hpp"
#include "io/file.hpp"
#include "io/mmap.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "test_util.hpp"

namespace gdelt {
namespace {

using testing::TempDir;

TEST(Crc32Test, KnownVectors) {
  // Standard IEEE CRC-32 test vectors.
  EXPECT_EQ(Crc32(""), 0x00000000u);
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "abcdefghijklmnopqrstuvwxyz0123456789";
  std::uint32_t crc = 0;
  crc = Crc32Update(crc, data.data(), 10);
  crc = Crc32Update(crc, data.data() + 10, data.size() - 10);
  EXPECT_EQ(crc, Crc32(data));
}

TEST(Crc32Test, MoreKnownVectors) {
  EXPECT_EQ(Crc32("a"), 0xE8B7BE43u);
  EXPECT_EQ(Crc32("abc"), 0x352441C2u);
  EXPECT_EQ(Crc32("message digest"), 0x20159D7Fu);
  EXPECT_EQ(Crc32(std::string(32, '\0')), 0x190A55ADu);
  EXPECT_EQ(Crc32(std::string(32, '\xff')), 0xFF6CAB0Bu);
}

/// Bit-at-a-time CRC-32, straight from the polynomial: the reference the
/// table-driven implementation must match.
std::uint32_t BitwiseCrc32(std::uint32_t crc, const unsigned char* p,
                           std::size_t n) {
  crc = ~crc;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) crc = (crc >> 1) ^ (0xEDB88320u & -(crc & 1));
  }
  return ~crc;
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  Xoshiro256 rng(32);
  std::vector<unsigned char> buf(1024 + 8);
  for (auto& b : buf) b = static_cast<unsigned char>(rng());
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      const unsigned char* p = buf.data() + align;
      ASSERT_EQ(Crc32Update(0, p, len), BitwiseCrc32(0, p, len))
          << "len " << len << " align " << align;
    }
  }
}

TEST(Crc32Test, SplitUpdatesMatchOneShot) {
  Xoshiro256 rng(33);
  std::vector<unsigned char> buf(1024);
  for (auto& b : buf) b = static_cast<unsigned char>(rng());
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t len = UniformBelow(rng, buf.size() + 1);
    const std::size_t cut = UniformBelow(rng, len + 1);
    const std::uint32_t seed = static_cast<std::uint32_t>(rng());
    const std::uint32_t split = Crc32Update(
        Crc32Update(seed, buf.data(), cut), buf.data() + cut, len - cut);
    ASSERT_EQ(split, BitwiseCrc32(seed, buf.data(), len))
        << "len " << len << " cut " << cut;
  }
}

TEST(FileTest, WriteReadWholeFile) {
  TempDir dir("file");
  const std::string path = dir.path() + "/x.bin";
  const std::string payload = std::string("hello\0world", 11);
  ASSERT_TRUE(WriteWholeFile(path, payload).ok());
  ASSERT_TRUE(FileExists(path));
  const auto size = FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, payload.size());
  const auto read = ReadWholeFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, payload);
}

TEST(FileTest, MissingFileErrors) {
  EXPECT_FALSE(FileExists("/nonexistent/path/file"));
  EXPECT_EQ(ReadWholeFile("/nonexistent/path/file").status().code(),
            StatusCode::kIoError);
  EXPECT_FALSE(FileSize("/nonexistent/path/file").ok());
}

TEST(FileTest, ListDirectorySorted) {
  TempDir dir("list");
  ASSERT_TRUE(WriteWholeFile(dir.path() + "/b.txt", "b").ok());
  ASSERT_TRUE(WriteWholeFile(dir.path() + "/a.txt", "a").ok());
  const auto files = ListDirectoryFiles(dir.path());
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files->size(), 2u);
  EXPECT_TRUE(EndsWith((*files)[0], "a.txt"));
  EXPECT_TRUE(EndsWith((*files)[1], "b.txt"));
  EXPECT_FALSE(ListDirectoryFiles(dir.path() + "/nope").ok());
}

TEST(BinaryWriterTest, PodAndStringRoundTrip) {
  TempDir dir("writer");
  const std::string path = dir.path() + "/t.bin";
  BinaryWriter w;
  ASSERT_TRUE(w.Open(path).ok());
  ASSERT_TRUE(w.WritePod(std::uint32_t{0xDEADBEEF}).ok());
  ASSERT_TRUE(w.WritePod(std::int64_t{-5}).ok());
  ASSERT_TRUE(w.WriteString("hello").ok());
  EXPECT_EQ(w.offset(), 4u + 8u + 4u + 5u);
  ASSERT_TRUE(w.Close().ok());

  const auto data = ReadWholeFile(path);
  ASSERT_TRUE(data.ok());
  BinaryReader r(data->data(), data->size());
  std::uint32_t u = 0;
  std::int64_t i = 0;
  std::string s;
  ASSERT_TRUE(r.ReadPod(u).ok());
  ASSERT_TRUE(r.ReadPod(i).ok());
  ASSERT_TRUE(r.ReadString(s).ok());
  EXPECT_EQ(u, 0xDEADBEEFu);
  EXPECT_EQ(i, -5);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BinaryReaderTest, OverrunIsDataLoss) {
  const char buf[4] = {1, 2, 3, 4};
  BinaryReader r(buf, sizeof(buf));
  std::uint64_t v = 0;
  EXPECT_EQ(r.ReadPod(v).code(), StatusCode::kDataLoss);
  // A failed read leaves the cursor usable for smaller reads.
  std::uint32_t u = 0;
  EXPECT_TRUE(r.ReadPod(u).ok());
}

TEST(BinaryReaderTest, StringLengthBeyondInput) {
  // Length prefix says 100 bytes but only 2 remain.
  const unsigned char buf[6] = {100, 0, 0, 0, 'a', 'b'};
  BinaryReader r(buf, sizeof(buf));
  std::string s;
  EXPECT_EQ(r.ReadString(s).code(), StatusCode::kDataLoss);
}

TEST(BinaryReaderTest, SeekAndSkip) {
  const char buf[8] = {0, 1, 2, 3, 4, 5, 6, 7};
  BinaryReader r(buf, sizeof(buf));
  ASSERT_TRUE(r.Skip(3).ok());
  EXPECT_EQ(r.offset(), 3u);
  ASSERT_TRUE(r.SeekTo(6).ok());
  EXPECT_EQ(r.remaining(), 2u);
  EXPECT_FALSE(r.SeekTo(9).ok());
  EXPECT_FALSE(r.Skip(5).ok());
}

TEST(MmapTest, MapsFileContents) {
  TempDir dir("mmap");
  const std::string path = dir.path() + "/m.bin";
  const std::string payload(10000, 'x');
  ASSERT_TRUE(WriteWholeFile(path, payload).ok());
  auto mapped = MemoryMappedFile::Open(path);
  ASSERT_TRUE(mapped.ok());
  EXPECT_EQ(mapped->view(), payload);
}

TEST(MmapTest, EmptyFile) {
  TempDir dir("mmap0");
  const std::string path = dir.path() + "/e.bin";
  ASSERT_TRUE(WriteWholeFile(path, "").ok());
  auto mapped = MemoryMappedFile::Open(path);
  ASSERT_TRUE(mapped.ok());
  EXPECT_EQ(mapped->size(), 0u);
}

TEST(MmapTest, MissingFileFails) {
  EXPECT_FALSE(MemoryMappedFile::Open("/no/such/file").ok());
}

TEST(MmapTest, MoveTransfersOwnership) {
  TempDir dir("mmapmv");
  const std::string path = dir.path() + "/m.bin";
  ASSERT_TRUE(WriteWholeFile(path, "abc").ok());
  auto a = MemoryMappedFile::Open(path);
  ASSERT_TRUE(a.ok());
  MemoryMappedFile b = std::move(*a);
  EXPECT_EQ(b.view(), "abc");
}

}  // namespace
}  // namespace gdelt
