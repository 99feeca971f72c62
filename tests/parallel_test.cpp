#include "parallel/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "parallel/morsel.hpp"
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

TEST(PoolHistogramTest, MatchesSerial) {
  const std::size_t n = 200000;
  const std::size_t bins = 64;
  std::vector<std::size_t> keys(n);
  Xoshiro256 rng(7);
  for (auto& k : keys) k = UniformBelow(rng, bins + 8);  // some out of range
  std::vector<std::uint64_t> serial(bins, 0);
  for (const auto k : keys) {
    if (k < bins) ++serial[k];
  }
  const auto pooled = parallel::PoolHistogram(
      {0, n}, bins, [&](std::size_t i) { return keys[i]; });
  EXPECT_EQ(pooled, serial);
}

TEST(PoolHistogramTest, EmptyInput) {
  const auto h =
      parallel::PoolHistogram({0, 0}, 4, [](std::size_t) { return 0u; });
  EXPECT_EQ(h, (std::vector<std::uint64_t>{0, 0, 0, 0}));
}

TEST(PoolHistogramTest, SelectionAndUnalignedRangeMatchSerial) {
  // A bitmap selection over a range whose ends fall inside words, at the
  // smallest morsel size so many morsels share edge words.
  const std::size_t n = 10000;
  const std::size_t bins = 16;
  std::vector<std::uint64_t> words((n + 63) / 64, 0);
  Xoshiro256 rng(9);
  for (auto& w : words) w = rng();
  const IndexRange rows{37, n - 29};
  const auto bin_of = [](std::size_t i) -> std::size_t { return i % 19; };
  std::vector<std::uint64_t> serial(bins, 0);
  std::vector<std::uint64_t> serial_all(bins, 0);
  for (std::size_t i = rows.begin; i < rows.end; ++i) {
    if (bin_of(i) >= bins) continue;
    ++serial_all[bin_of(i)];
    if ((words[i / 64] >> (i % 64)) & 1u) ++serial[bin_of(i)];
  }
  parallel::SetMorselRows(64);
  EXPECT_EQ(parallel::PoolHistogram(rows, bins, bin_of, words.data()), serial);
  EXPECT_EQ(parallel::PoolHistogram(rows, bins, bin_of), serial_all);
  parallel::SetMorselRows(0);
  EXPECT_EQ(parallel::PoolHistogram(rows, bins, bin_of, words.data()), serial);
}

TEST(ScopedPoolTest, RoutesLoopsAndNestedLoopsToThePrivatePool) {
  parallel::MorselPool pool(2);
  std::atomic<int> visits{0};
  {
    const parallel::ScopedPool use(pool);
    EXPECT_EQ(&parallel::CurrentPool(), &pool);
    EXPECT_EQ(parallel::PoolSlots(), pool.num_slots());
    parallel::PoolParallelFor(
        8,
        [&](IndexRange r, std::size_t) {
          // A loop started inside a morsel stays on the morsel's pool.
          EXPECT_EQ(&parallel::CurrentPool(), &pool);
          parallel::PoolParallelFor(
              4, [&](IndexRange inner, std::size_t) {
                visits += static_cast<int>(inner.size() * r.size());
              });
        },
        /*morsel_rows=*/1);
  }
  EXPECT_EQ(visits.load(), 8 * 4);
  EXPECT_EQ(pool.stats().jobs, 1u);
  EXPECT_EQ(pool.stats().inline_jobs, 8u);
  EXPECT_EQ(&parallel::CurrentPool(), &parallel::MorselPool::Shared());
}

TEST(PrefixSumTest, ExclusiveSemantics) {
  std::vector<std::uint64_t> v{3, 0, 2, 5};
  const std::uint64_t total = ExclusivePrefixSum(v);
  EXPECT_EQ(total, 10u);
  EXPECT_EQ(v, (std::vector<std::uint64_t>{0, 3, 3, 5}));
}

}  // namespace
}  // namespace gdelt
