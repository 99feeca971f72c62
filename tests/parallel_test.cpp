#include "parallel/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "parallel/sort.hpp"
#include "util/rng.hpp"

namespace gdelt {
namespace {

TEST(SplitRangeTest, CoversExactlyOnce) {
  for (const std::size_t n : {0ul, 1ul, 7ul, 100ul, 1000ul}) {
    for (const std::size_t parts : {1ul, 2ul, 3ul, 16ul, 1000ul}) {
      const auto ranges = SplitRange(n, parts);
      std::size_t covered = 0;
      std::size_t expected_next = 0;
      for (const auto& r : ranges) {
        EXPECT_EQ(r.begin, expected_next);
        EXPECT_LE(r.begin, r.end);
        covered += r.size();
        expected_next = r.end;
      }
      EXPECT_EQ(covered, n) << "n=" << n << " parts=" << parts;
      EXPECT_EQ(expected_next, n);
    }
  }
}

TEST(SplitRangeTest, BalancedWithinOne) {
  const auto ranges = SplitRange(103, 10);
  std::size_t min_size = SIZE_MAX;
  std::size_t max_size = 0;
  for (const auto& r : ranges) {
    min_size = std::min(min_size, r.size());
    max_size = std::max(max_size, r.size());
  }
  EXPECT_LE(max_size - min_size, 1u);
}

class ParallelForTest : public ::testing::TestWithParam<Schedule> {};

TEST_P(ParallelForTest, VisitsEachIndexOnce) {
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> visits(n);
  ParallelFor(
      n, [&](std::size_t i) { visits[i].fetch_add(1); }, GetParam());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Schedules, ParallelForTest,
                         ::testing::Values(Schedule::kStatic,
                                           Schedule::kDynamic));

TEST(ParallelForChunksTest, ChunksPartitionRange) {
  const std::size_t n = 5000;
  std::vector<std::atomic<int>> visits(n);
  ParallelForChunks(n, [&](IndexRange r, int tid) {
    EXPECT_GE(tid, 0);
    for (std::size_t i = r.begin; i < r.end; ++i) visits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelReduceTest, MatchesSerialSum) {
  const std::size_t n = 100000;
  std::vector<std::uint64_t> data(n);
  Xoshiro256 rng(3);
  for (auto& d : data) d = UniformBelow(rng, 1000);
  const std::uint64_t serial = std::accumulate(data.begin(), data.end(), 0ull);
  const std::uint64_t parallel = ParallelSum<std::uint64_t>(
      n, [&](std::size_t i) { return data[i]; });
  EXPECT_EQ(parallel, serial);
}

TEST(ParallelReduceTest, MinMax) {
  const std::size_t n = 50000;
  std::vector<std::int64_t> data(n);
  Xoshiro256 rng(5);
  for (auto& d : data) d = UniformInt(rng, -1000000, 1000000);
  const auto mn = ParallelReduce<std::int64_t>(
      n, INT64_MAX, [&](std::size_t i) { return data[i]; },
      [](std::int64_t a, std::int64_t b) { return std::min(a, b); });
  const auto mx = ParallelReduce<std::int64_t>(
      n, INT64_MIN, [&](std::size_t i) { return data[i]; },
      [](std::int64_t a, std::int64_t b) { return std::max(a, b); });
  EXPECT_EQ(mn, *std::min_element(data.begin(), data.end()));
  EXPECT_EQ(mx, *std::max_element(data.begin(), data.end()));
}

TEST(ParallelHistogramTest, MatchesSerial) {
  const std::size_t n = 200000;
  const std::size_t bins = 64;
  std::vector<std::size_t> keys(n);
  Xoshiro256 rng(7);
  for (auto& k : keys) k = UniformBelow(rng, bins + 8);  // some out of range
  std::vector<std::uint64_t> serial(bins, 0);
  for (const auto k : keys) {
    if (k < bins) ++serial[k];
  }
  const auto parallel =
      ParallelHistogram(n, bins, [&](std::size_t i) { return keys[i]; });
  EXPECT_EQ(parallel, serial);
}

TEST(ParallelHistogramTest, EmptyInput) {
  const auto h = ParallelHistogram(0, 4, [](std::size_t) { return 0u; });
  EXPECT_EQ(h, (std::vector<std::uint64_t>{0, 0, 0, 0}));
}

TEST(PrefixSumTest, ExclusiveSemantics) {
  std::vector<std::uint64_t> v{3, 0, 2, 5};
  const std::uint64_t total = ExclusivePrefixSum(v);
  EXPECT_EQ(total, 10u);
  EXPECT_EQ(v, (std::vector<std::uint64_t>{0, 3, 3, 5}));
}

TEST(ParallelSortTest, SortsLargeRandom) {
  Xoshiro256 rng(11);
  std::vector<std::uint64_t> v(300000);
  for (auto& x : v) x = rng();
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  ParallelSort(v);
  EXPECT_EQ(v, expected);
}

TEST(ParallelSortTest, CustomComparatorDescending) {
  Xoshiro256 rng(13);
  std::vector<int> v(50000);
  for (auto& x : v) x = static_cast<int>(UniformBelow(rng, 1000));
  ParallelSort(v, std::greater<>());
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end(), std::greater<>()));
}

TEST(ParallelSortTest, SmallAndEmpty) {
  std::vector<int> empty;
  ParallelSort(empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{5};
  ParallelSort(one);
  EXPECT_EQ(one, std::vector<int>{5});
  std::vector<int> few{3, 1, 2};
  ParallelSort(few);
  EXPECT_EQ(few, (std::vector<int>{1, 2, 3}));
}

}  // namespace
}  // namespace gdelt
