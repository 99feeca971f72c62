#include "analysis/firstreport.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "parallel/morsel.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace gdelt::analysis {
namespace {

using ::gdelt::testing::TempDir;
using ::gdelt::testing::TestDbBuilder;

TEST(FirstReportTest, HandComputedScenario) {
  TempDir dir("firstreport");
  TestDbBuilder builder;
  // E1 at 100: a first (delay 2), then b, then a again (repeat).
  const auto e1 = builder.AddEvent(100);
  builder.AddMention(e1, 102, "a.com");
  builder.AddMention(e1, 105, "b.com");
  builder.AddMention(e1, 110, "a.com");
  // E2 at 200: b first (delay 3).
  const auto e2 = builder.AddEvent(200);
  builder.AddMention(e2, 203, "b.com");
  // E3 at 300: b first with delay 40 (beyond the 1-hour cut).
  const auto e3 = builder.AddEvent(300);
  builder.AddMention(e3, 340, "b.com");
  builder.AddMention(e3, 341, "b.com");
  builder.AddMention(e3, 342, "b.com");
  auto db = builder.Build(dir.path());
  ASSERT_TRUE(db.ok());
  const auto a = *db->sources().Find("a.com");
  const auto b = *db->sources().Find("b.com");

  const FirstReportStats stats = ComputeFirstReports(*db);
  EXPECT_EQ(stats.first_reports[a], 1u);
  EXPECT_EQ(stats.first_reports[b], 2u);
  // Delays: 2 (bin 2), 3 (bin 2), 40 (bin 6: [32,64)).
  EXPECT_EQ(stats.first_delay_histogram[2], 2u);
  EXPECT_EQ(stats.first_delay_histogram[6], 1u);
  EXPECT_EQ(stats.events_broken_within_hour, 2u);
  // Repeats: a has 1 extra article (E1); b has 2 (E3).
  EXPECT_EQ(stats.repeat_articles[a], 1u);
  EXPECT_EQ(stats.repeat_articles[b], 2u);
  EXPECT_DOUBLE_EQ(stats.RepeatRate(b, 6), 2.0 / 6.0);
}

TEST(FirstReportTest, TieBreaksByCaptureOrder) {
  TempDir dir("firstreport2");
  TestDbBuilder builder;
  const auto e = builder.AddEvent(100);
  builder.AddMention(e, 101, "x.com");  // same interval, inserted first
  builder.AddMention(e, 101, "y.com");
  auto db = builder.Build(dir.path());
  ASSERT_TRUE(db.ok());
  const FirstReportStats stats = ComputeFirstReports(*db);
  EXPECT_EQ(stats.first_reports[*db->sources().Find("x.com")], 1u);
  EXPECT_EQ(stats.first_reports[*db->sources().Find("y.com")], 0u);
}

TEST(FirstReportTest, TotalsAreConsistent) {
  TempDir dir("firstreport3");
  TestDbBuilder builder;
  for (int i = 0; i < 20; ++i) {
    const auto e = builder.AddEvent(1000 + i * 10);
    builder.AddMention(e, 1001 + i * 10, i % 2 ? "a.com" : "b.com");
    builder.AddMention(e, 1005 + i * 10, "c.com");
  }
  auto db = builder.Build(dir.path());
  ASSERT_TRUE(db.ok());
  const FirstReportStats stats = ComputeFirstReports(*db);
  std::uint64_t total_first = 0;
  for (const auto f : stats.first_reports) total_first += f;
  EXPECT_EQ(total_first, db->num_events());
  std::uint64_t hist_total = 0;
  for (const auto h : stats.first_delay_histogram) hist_total += h;
  EXPECT_EQ(hist_total, db->num_events());  // no negative-delay defects here
}

TEST(FirstReportTest, NegativeFirstDelayExcludedFromHistogram) {
  TempDir dir("firstreport4");
  TestDbBuilder builder;
  const auto e = builder.AddEvent(5000);
  builder.AddMention(e, 4990, "t.com");  // future-dated event
  auto db = builder.Build(dir.path());
  ASSERT_TRUE(db.ok());
  const FirstReportStats stats = ComputeFirstReports(*db);
  EXPECT_EQ(stats.first_reports[*db->sources().Find("t.com")], 1u);
  std::uint64_t hist_total = 0;
  for (const auto h : stats.first_delay_histogram) hist_total += h;
  EXPECT_EQ(hist_total, 0u);
}

/// One planted event: its interval and its mentions (interval, source)
/// in capture order.
struct Planted {
  std::int64_t at;
  std::vector<std::pair<std::int64_t, std::string>> mentions;
};

/// The definition, one event at a time: the earliest mention (first in
/// capture order on ties) breaks the event; a delay d >= 0 lands in the
/// smallest bin k with d < 2^k, clamped to the last bin; every source's
/// mentions beyond its first are repeats.
FirstReportStats NaiveFirstReports(const std::vector<Planted>& events,
                                   const engine::Database& db, int bins) {
  FirstReportStats want;
  want.first_reports.assign(db.num_sources(), 0);
  want.first_delay_histogram.assign(static_cast<std::size_t>(bins), 0);
  want.repeat_articles.assign(db.num_sources(), 0);
  const auto id = [&db](const std::string& domain) {
    return *db.sources().Find(domain);
  };
  for (const Planted& ev : events) {
    if (ev.mentions.empty()) continue;
    std::size_t first = 0;
    for (std::size_t i = 1; i < ev.mentions.size(); ++i) {
      if (ev.mentions[i].first < ev.mentions[first].first) first = i;
    }
    ++want.first_reports[id(ev.mentions[first].second)];
    const std::int64_t delay = ev.mentions[first].first - ev.at;
    if (delay >= 0) {
      std::size_t bin = 0;
      while (bin < 63 && (std::int64_t{1} << bin) <= delay) ++bin;
      ++want.first_delay_histogram[std::min<std::size_t>(bin, bins - 1)];
      if (delay <= 4) ++want.events_broken_within_hour;
    }
    std::map<std::string, std::uint64_t> per_source;
    for (const auto& mention : ev.mentions) ++per_source[mention.second];
    for (const auto& [domain, count] : per_source) {
      want.repeat_articles[id(domain)] += count - 1;
    }
  }
  return want;
}

void ExpectSameStats(const FirstReportStats& got,
                     const FirstReportStats& want) {
  EXPECT_EQ(got.first_reports, want.first_reports);
  EXPECT_EQ(got.first_delay_histogram, want.first_delay_histogram);
  EXPECT_EQ(got.events_broken_within_hour, want.events_broken_within_hour);
  EXPECT_EQ(got.repeat_articles, want.repeat_articles);
}

TEST(FirstReportTest, PlantedEventsMatchTheDefinitionInEveryPartition) {
  std::vector<Planted> events;
  // Delays 0-5, then 2^k - 1 and 2^k for k up to 31: every bin edge the
  // bit width has to get right. The event sits low enough that the
  // mention stays inside an i32 interval.
  constexpr std::int64_t kLow = -(std::int64_t{1} << 30);
  for (std::int64_t d = 0; d <= 5; ++d) {
    events.push_back({kLow, {{kLow + d, "a.com"}}});
  }
  for (int k = 1; k <= 31; ++k) {
    const std::int64_t p = std::int64_t{1} << k;
    events.push_back({kLow, {{kLow + p - 1, "b.com"}}});
    events.push_back({kLow, {{kLow + p, "c.com"}}});
  }
  // Negative first delays (future-dated events): breaks, no bin.
  events.push_back({5000, {{4990, "d.com"}}});
  events.push_back({5000, {{4999, "e.com"}, {5003, "a.com"}}});
  // Ties on the earliest interval go to the first row in capture order.
  events.push_back({100, {{103, "b.com"}, {101, "x.com"}, {101, "y.com"}}});
  events.push_back({100, {{101, "y.com"}, {101, "x.com"}}});
  // One source with 3 rows beside single-row sources.
  events.push_back({200, {{207, "r.com"}, {202, "a.com"}, {209, "r.com"},
                          {203, "b.com"}, {211, "r.com"}}});
  // An event with no mentions.
  events.push_back({300, {}});
  // Filler: random multi-source events, so the kernel runs several
  // morsels at the smallest morsel size below.
  Xoshiro256 rng(25);
  const char* const kDomains[] = {"a.com", "b.com", "c.com", "r.com", "z.com"};
  for (int i = 0; i < 600; ++i) {
    Planted ev{1000 + i, {}};
    const auto rows = UniformBelow(rng, 7);
    for (std::uint64_t m = 0; m < rows; ++m) {
      ev.mentions.push_back({ev.at + static_cast<std::int64_t>(
                                         UniformBelow(rng, 40)) - 3,
                             kDomains[UniformBelow(rng, 5)]});
    }
    events.push_back(std::move(ev));
  }

  TempDir dir("firstreport_planted");
  TestDbBuilder builder;
  builder.KeepMentionOrder();
  for (const Planted& ev : events) {
    const auto gid = builder.AddEvent(ev.at);
    for (const auto& [at, domain] : ev.mentions) {
      builder.AddMention(gid, at, domain);
    }
  }
  auto db = builder.Build(dir.path());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_EQ(db->num_events(), events.size());

  parallel::SetMorselRows(64);
  for (const int bins : {18, 33}) {
    const FirstReportStats want = NaiveFirstReports(events, *db, bins);
    ExpectSameStats(ComputeFirstReports(*db, kWholeRange, bins), want);
    // Each partition of the event axis adds up to the whole.
    for (std::size_t of = 1; of <= 4; ++of) {
      FirstReportStats sum;
      sum.first_reports.assign(db->num_sources(), 0);
      sum.first_delay_histogram.assign(static_cast<std::size_t>(bins), 0);
      sum.repeat_articles.assign(db->num_sources(), 0);
      for (const IndexRange part : SplitRange(db->num_events(), of)) {
        const auto got = ComputeFirstReports(*db, part, bins);
        for (std::size_t s = 0; s < db->num_sources(); ++s) {
          sum.first_reports[s] += got.first_reports[s];
          sum.repeat_articles[s] += got.repeat_articles[s];
        }
        for (std::size_t b = 0; b < sum.first_delay_histogram.size(); ++b) {
          sum.first_delay_histogram[b] += got.first_delay_histogram[b];
        }
        sum.events_broken_within_hour += got.events_broken_within_hour;
      }
      SCOPED_TRACE("bins=" + std::to_string(bins) +
                   " of=" + std::to_string(of));
      ExpectSameStats(sum, want);
    }
  }
  parallel::SetMorselRows(0);
}

}  // namespace
}  // namespace gdelt::analysis
