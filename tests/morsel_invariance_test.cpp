// Morsel-size and partition invariance of the aggregate kernels, checked
// against naive per-kind loops written straight from the paper's
// definitions.
//
// Each kernel of a decomposable query kind must reproduce its naive
// reference bit for bit at the smallest morsel size (64 rows) and at one
// whole-range morsel, and the kernel run over a 3-way SplitRange of its
// partition axis (event rows, mention rows, the listed sources, the
// owned quarters) must sum to the whole-range run. Integer partials
// merge in slot order (sums commute across morsels); the delay floats
// are computed whole within one source or quarter, and their delays are
// small integers whose double sums are exact, so even the averages
// compare with EXPECT_EQ.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/coreport.hpp"
#include "analysis/country.hpp"
#include "analysis/delay.hpp"
#include "analysis/firstreport.hpp"
#include "analysis/followreport.hpp"
#include "analysis/tone.hpp"
#include "convert/converter.hpp"
#include "engine/filter.hpp"
#include "engine/queries.hpp"
#include "gen/emit.hpp"
#include "gen/generator.hpp"
#include "gtime/timestamp.hpp"
#include "parallel/morsel.hpp"
#include "test_util.hpp"

namespace gdelt::analysis {
namespace {

using ::gdelt::testing::TempDir;

/// The two morsel sizes under test: the clamp floor, and the clamp
/// ceiling (larger than the Tiny dataset, so one morsel covers it all).
constexpr std::size_t kMorselSizes[] = {64, std::size_t{1} << 22};

/// Adds `x` into `acc` element-wise.
template <typename T>
void AddInto(std::vector<T>& acc, const std::vector<T>& x) {
  ASSERT_EQ(acc.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) acc[i] += x[i];
}

/// True median as the paper's Table VIII defines it: the middle element,
/// or the floored mean of the two middle elements of a sorted list.
std::int64_t NaiveMedian(const std::vector<std::int64_t>& sorted) {
  const std::size_t n = sorted.size();
  if (n % 2 != 0) return sorted[n / 2];
  const std::int64_t lower = sorted[n / 2 - 1];
  return lower + (sorted[n / 2] - lower) / 2;
}

std::tuple<std::uint64_t, std::int64_t, std::int64_t, double, std::int64_t>
Fields(const DelayStats& st) {
  return {st.article_count, st.min, st.max, st.average, st.median};
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> Fields(
    const std::vector<engine::TopEvent>& top) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  for (const auto& ev : top) out.emplace_back(ev.event_row, ev.articles);
  return out;
}

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
    // A selection that drops rows for two reasons: the middle half of
    // the capture span and a confidence floor.
    engine::MentionFilter filter;
    const std::int64_t span = db_->last_interval() - db_->first_interval();
    filter.begin_interval = db_->first_interval() + span / 4;
    filter.end_interval = db_->first_interval() + 3 * span / 4;
    filter.min_confidence = 50;
    sel_ = new engine::SelectionBitmap(
        engine::SelectMentionsBitmap(*db_, filter));
    ASSERT_GT(sel_->CountSet(), 0u);
    ASSERT_LT(sel_->CountSet(), db_->num_mentions());
  }
  static void TearDownTestSuite() {
    parallel::SetMorselRows(0);
    delete sel_;
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

  /// No selection, then the suite's selection.
  static std::vector<const engine::SelectionBitmap*> Selections() {
    return {nullptr, sel_};
  }

  static std::vector<IndexRange> Thirds(std::size_t n) {
    return SplitRange(n, 3);
  }

  /// Mention rows of `range` that `sel` (if any) selects.
  static std::vector<std::uint64_t> Rows(IndexRange range,
                                         const engine::SelectionBitmap* sel) {
    std::vector<std::uint64_t> rows;
    for (std::uint64_t i = range.begin; i < range.end; ++i) {
      if (sel == nullptr || sel->Test(i)) rows.push_back(i);
    }
    return rows;
  }

  /// Per event row, its mention rows in row order (the selected ones).
  static std::vector<std::vector<std::uint64_t>> RowsByEvent(
      const engine::SelectionBitmap* sel = nullptr) {
    std::vector<std::vector<std::uint64_t>> out(db_->num_events());
    const auto event_row = db_->mention_event_row();
    for (const std::uint64_t i : Rows({0, db_->num_mentions()}, sel)) {
      if (event_row[i] == convert::kOrphanEventRow) continue;
      out[event_row[i]].push_back(i);
    }
    return out;
  }

  static std::vector<std::int32_t> SlotsOf(
      std::span<const std::uint32_t> subset) {
    std::vector<std::int32_t> slot(db_->num_sources(), -1);
    for (std::size_t k = 0; k < subset.size(); ++k) {
      slot[subset[k]] = static_cast<std::int32_t>(k);
    }
    return slot;
  }

  static inline TempDir* dirs_ = nullptr;
  static inline engine::Database* db_ = nullptr;
  static inline engine::SelectionBitmap* sel_ = nullptr;
};

TEST_F(MorselInvarianceTest, ArticlesPerSource) {
  for (const engine::SelectionBitmap* sel : Selections()) {
    SCOPED_TRACE(sel ? "selected" : "all rows");
    // Articles of a source = its mention rows.
    std::vector<std::uint64_t> naive(db_->num_sources(), 0);
    for (const std::uint64_t i : Rows({0, db_->num_mentions()}, sel)) {
      ++naive[db_->mention_source_id()[i]];
    }
    for (const auto& got : AtEachMorselSize([&] {
           return engine::ArticlesPerSource(*db_, kWholeRange, sel);
         })) {
      EXPECT_EQ(got, naive);
    }
    std::vector<std::uint64_t> sum(db_->num_sources(), 0);
    for (const IndexRange part : Thirds(db_->num_mentions())) {
      AddInto(sum, engine::ArticlesPerSource(*db_, part, sel));
    }
    EXPECT_EQ(sum, naive);
  }
}

TEST_F(MorselInvarianceTest, CountryCrossReporting) {
  const std::size_t nc = Countries().size();
  for (const engine::SelectionBitmap* sel : Selections()) {
    SCOPED_TRACE(sel ? "selected" : "all rows");
    // An article counts for its publisher's country; it lands in the
    // (event country, publisher country) cell when its event is located.
    std::vector<std::uint64_t> cells(nc * nc, 0);
    std::vector<std::uint64_t> totals(nc, 0);
    for (const std::uint64_t i : Rows({0, db_->num_mentions()}, sel)) {
      const CountryId pub =
          db_->source_country()[db_->mention_source_id()[i]];
      if (pub == kNoCountry) continue;
      ++totals[pub];
      const std::uint32_t row = db_->mention_event_row()[i];
      if (row == convert::kOrphanEventRow) continue;
      const CountryId rep = db_->event_country()[row];
      if (rep != kNoCountry) ++cells[std::size_t{rep} * nc + pub];
    }
    for (const auto& got : AtEachMorselSize([&] {
           return engine::CountryCrossReporting(*db_, kWholeRange, sel);
         })) {
      EXPECT_EQ(got.counts, cells);
      EXPECT_EQ(got.articles_per_publisher, totals);
    }
    std::vector<std::uint64_t> sum_cells(nc * nc, 0);
    std::vector<std::uint64_t> sum_totals(nc, 0);
    for (const IndexRange part : Thirds(db_->num_mentions())) {
      const auto got = engine::CountryCrossReporting(*db_, part, sel);
      AddInto(sum_cells, got.counts);
      AddInto(sum_totals, got.articles_per_publisher);
    }
    EXPECT_EQ(sum_cells, cells);
    EXPECT_EQ(sum_totals, totals);
  }
}

TEST_F(MorselInvarianceTest, TopReportedEvents) {
  // Table III: all events by article count, descending, ties by row.
  constexpr std::size_t kTop = 25;
  std::vector<engine::TopEvent> naive;
  for (std::uint32_t e = 0; e < db_->num_events(); ++e) {
    naive.push_back({e, db_->event_article_count()[e]});
  }
  std::stable_sort(naive.begin(), naive.end(),
                   [](const engine::TopEvent& a, const engine::TopEvent& b) {
                     return a.articles > b.articles;
                   });
  naive.resize(kTop);
  for (const auto& got : AtEachMorselSize(
           [] { return engine::TopReportedEvents(*db_, kTop); })) {
    EXPECT_EQ(Fields(got), Fields(naive));
  }
  engine::TopEventsSelector<engine::TopEvent> merged(kTop);
  for (const IndexRange part : Thirds(db_->num_events())) {
    for (const auto& ev : engine::TopReportedEvents(*db_, kTop, part)) {
      merged.Offer(ev);
    }
  }
  EXPECT_EQ(Fields(std::move(merged).Take()), Fields(naive));
}

TEST_F(MorselInvarianceTest, CoReporting) {
  const auto top = engine::TopSourcesByArticles(*db_, 12);
  const std::size_t n = top.size();
  const auto slot = SlotsOf(top);
  for (const engine::SelectionBitmap* sel : Selections()) {
    SCOPED_TRACE(sel ? "selected" : "all rows");
    // e_ij: events both i and j published on (e_i on the diagonal).
    std::vector<std::uint32_t> naive(n * n, 0);
    for (const auto& rows : RowsByEvent(sel)) {
      std::set<std::int32_t> members;
      for (const std::uint64_t i : rows) {
        const std::int32_t k = slot[db_->mention_source_id()[i]];
        if (k >= 0) members.insert(k);
      }
      for (const std::int32_t a : members) {
        for (const std::int32_t b : members) {
          ++naive[static_cast<std::size_t>(a) * n +
                  static_cast<std::size_t>(b)];
        }
      }
    }
    for (const bool force_sparse : {false, true}) {
      SCOPED_TRACE(force_sparse ? "sparse flavor" : "dense flavor");
      TiledCoReportOptions options;
      if (force_sparse) options.dense_partials_budget_bytes = 1;
      for (const auto& got : AtEachMorselSize([&] {
             return ComputeCoReporting(*db_, top, kWholeRange, sel, options);
           })) {
        EXPECT_EQ(got.counts(), naive);
      }
      std::vector<std::uint32_t> sum(n * n, 0);
      for (const IndexRange part : Thirds(db_->num_events())) {
        AddInto(sum,
                ComputeCoReporting(*db_, top, part, sel, options).counts());
      }
      EXPECT_EQ(sum, naive);
    }
  }
}

TEST_F(MorselInvarianceTest, FollowReporting) {
  const auto top = engine::TopSourcesByArticles(*db_, 10);
  const std::size_t n = top.size();
  const auto slot = SlotsOf(top);
  const auto when = db_->mention_interval();
  // n_ij: articles by j on an event i first published on in a strictly
  // earlier capture interval; n_j: all of j's articles.
  std::vector<std::uint64_t> naive(n * n, 0);
  for (const auto& rows : RowsByEvent()) {
    std::vector<std::int64_t> first(n, INT64_MAX);
    for (const std::uint64_t i : rows) {
      const std::int32_t k = slot[db_->mention_source_id()[i]];
      if (k >= 0) first[k] = std::min(first[k], when[i]);
    }
    for (const std::uint64_t i : rows) {
      const std::int32_t j = slot[db_->mention_source_id()[i]];
      if (j < 0) continue;
      for (std::size_t k = 0; k < n; ++k) {
        if (first[k] < when[i]) ++naive[k * n + static_cast<std::size_t>(j)];
      }
    }
  }
  std::vector<std::uint64_t> articles(n, 0);
  for (std::uint64_t i = 0; i < db_->num_mentions(); ++i) {
    const std::int32_t k = slot[db_->mention_source_id()[i]];
    if (k >= 0) ++articles[k];
  }
  for (const auto& got : AtEachMorselSize(
           [&] { return ComputeFollowReporting(*db_, top); })) {
    EXPECT_EQ(got.n, n);
    EXPECT_EQ(got.follow_counts, naive);
    EXPECT_EQ(got.articles, articles);
  }
  std::vector<std::uint64_t> sum(n * n, 0);
  for (const IndexRange part : Thirds(db_->num_events())) {
    const auto got = ComputeFollowReporting(*db_, top, part);
    AddInto(sum, got.follow_counts);
    EXPECT_EQ(got.articles, articles);
  }
  EXPECT_EQ(sum, naive);
}

TEST_F(MorselInvarianceTest, CountryCoReporting) {
  const std::size_t nc = Countries().size();
  // e_cd: events the press of both c and d reported on.
  std::vector<std::uint64_t> naive(nc * nc, 0);
  for (const auto& rows : RowsByEvent()) {
    std::set<CountryId> countries;
    for (const std::uint64_t i : rows) {
      const CountryId c = db_->source_country()[db_->mention_source_id()[i]];
      if (c != kNoCountry) countries.insert(c);
    }
    for (const CountryId c : countries) {
      for (const CountryId d : countries) ++naive[std::size_t{c} * nc + d];
    }
  }
  for (const auto& got :
       AtEachMorselSize([] { return ComputeCountryCoReporting(*db_); })) {
    EXPECT_EQ(got.pair_counts, naive);
  }
  std::vector<std::uint64_t> sum(nc * nc, 0);
  for (const IndexRange part : Thirds(db_->num_events())) {
    AddInto(sum, ComputeCountryCoReporting(*db_, part).pair_counts);
  }
  EXPECT_EQ(sum, naive);
}

TEST_F(MorselInvarianceTest, FirstReports) {
  constexpr int kBins = 18;
  const auto src = db_->mention_source_id();
  const auto when = db_->mention_interval();
  const auto event_when = db_->mention_event_interval();
  // Per event: the earliest article (first in capture order on ties)
  // breaks it; its delay is binned by powers of two; every source's
  // articles beyond its first on the event are repeats.
  FirstReportStats naive;
  naive.first_reports.assign(db_->num_sources(), 0);
  naive.first_delay_histogram.assign(kBins, 0);
  naive.repeat_events.assign(db_->num_sources(), 0);
  naive.repeat_articles.assign(db_->num_sources(), 0);
  for (const auto& rows : RowsByEvent()) {
    if (rows.empty()) continue;
    std::uint64_t first = rows.front();
    for (const std::uint64_t i : rows) {
      if (when[i] < when[first]) first = i;
    }
    ++naive.first_reports[src[first]];
    const std::int64_t delay = when[first] - event_when[first];
    if (delay >= 0) {
      const std::size_t bin =
          delay == 0 ? 0
                     : 1 + static_cast<std::size_t>(
                               std::log2(static_cast<double>(delay)));
      ++naive.first_delay_histogram[std::min<std::size_t>(bin, kBins - 1)];
      if (delay <= 4) ++naive.events_broken_within_hour;
    }
    std::vector<std::uint32_t> sources;
    for (const std::uint64_t i : rows) sources.push_back(src[i]);
    std::sort(sources.begin(), sources.end());
    for (std::size_t a = 0; a < sources.size();) {
      std::size_t b = a;
      while (b < sources.size() && sources[b] == sources[a]) ++b;
      if (b - a >= 2) {
        ++naive.repeat_events[sources[a]];
        naive.repeat_articles[sources[a]] += b - a - 1;
      }
      a = b;
    }
  }
  const auto expect_eq = [](const FirstReportStats& got,
                            const FirstReportStats& want) {
    EXPECT_EQ(got.first_reports, want.first_reports);
    EXPECT_EQ(got.first_delay_histogram, want.first_delay_histogram);
    EXPECT_EQ(got.events_broken_within_hour, want.events_broken_within_hour);
    EXPECT_EQ(got.repeat_events, want.repeat_events);
    EXPECT_EQ(got.repeat_articles, want.repeat_articles);
  };
  for (const auto& got : AtEachMorselSize(
           [] { return ComputeFirstReports(*db_, kWholeRange, kBins); })) {
    expect_eq(got, naive);
  }
  FirstReportStats sum;
  sum.first_reports.assign(db_->num_sources(), 0);
  sum.first_delay_histogram.assign(kBins, 0);
  sum.repeat_events.assign(db_->num_sources(), 0);
  sum.repeat_articles.assign(db_->num_sources(), 0);
  for (const IndexRange part : Thirds(db_->num_events())) {
    const auto got = ComputeFirstReports(*db_, part, kBins);
    AddInto(sum.first_reports, got.first_reports);
    AddInto(sum.first_delay_histogram, got.first_delay_histogram);
    AddInto(sum.repeat_events, got.repeat_events);
    AddInto(sum.repeat_articles, got.repeat_articles);
    sum.events_broken_within_hour += got.events_broken_within_hour;
  }
  expect_eq(sum, naive);
}

TEST_F(MorselInvarianceTest, PerSourceDelayStats) {
  // Delay of an article = its capture interval minus its event's, in
  // 15-minute units; negative delays (the Table II defect) are dropped.
  const auto ids = engine::AllSources(*db_);
  std::vector<std::vector<std::int64_t>> delays(db_->num_sources());
  for (std::uint64_t i = 0; i < db_->num_mentions(); ++i) {
    const std::int64_t d =
        db_->mention_interval()[i] - db_->mention_event_interval()[i];
    if (d >= 0) delays[db_->mention_source_id()[i]].push_back(d);
  }
  std::vector<DelayStats> naive(ids.size());
  for (const std::uint32_t s : ids) {
    auto& v = delays[s];
    DelayStats& st = naive[s];
    st.article_count = v.size();
    if (v.empty()) continue;
    std::sort(v.begin(), v.end());
    st.min = v.front();
    st.max = v.back();
    st.median = NaiveMedian(v);
    double sum = 0.0;
    for (const std::int64_t d : v) sum += static_cast<double>(d);
    st.average = sum / static_cast<double>(v.size());
  }
  const auto expect_eq = [](const std::vector<DelayStats>& got,
                            const std::vector<DelayStats>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(Fields(got[k]), Fields(want[k])) << "slot " << k;
    }
  };
  for (const auto& got : AtEachMorselSize(
           [&] { return PerSourceDelayStats(*db_, ids); })) {
    expect_eq(got, naive);
  }
  std::vector<DelayStats> joined;
  for (const IndexRange part : Thirds(ids.size())) {
    const auto got = PerSourceDelayStats(
        *db_, std::span(ids).subspan(part.begin, part.size()));
    joined.insert(joined.end(), got.begin(), got.end());
  }
  expect_eq(joined, naive);
  // The source list is computed as given: a subset, in any order.
  const std::vector<std::uint32_t> picked = {ids.back(), ids.front()};
  expect_eq(PerSourceDelayStats(*db_, picked),
            {naive[ids.back()], naive[ids.front()]});
}

TEST_F(MorselInvarianceTest, ToneSumsAreBitIdenticalAtAnyPoolAndMorselSize) {
  // Tone sums doubles, so only a fixed summation order makes the sums
  // reproducible: the kernel sums fixed-size event blocks and merges
  // them in block order, whatever the pool and morsel sizes.
  ASSERT_GT(db_->num_events(), 2048u);  // > 2 of its 1024-event blocks
  using Sums = std::vector<std::pair<double, std::uint64_t>>;
  const auto run = [] {
    Sums out;
    for (const MeanAccumulator& m : AverageToneByCountry(*db_)) {
      out.emplace_back(m.sum, m.count);
    }
    const QuadClassTone quad = ToneByQuadClass(*db_);
    for (std::size_t q = 0; q < quad.tone.size(); ++q) {
      out.emplace_back(quad.tone[q].sum, quad.tone[q].count);
      out.emplace_back(quad.goldstein[q].sum, quad.goldstein[q].count);
    }
    return out;
  };
  std::vector<Sums> runs;
  for (const int workers : {1, 4}) {
    parallel::MorselPool pool(workers);
    const parallel::ScopedPool use_pool(pool);
    for (const std::size_t rows : {std::size_t{64}, std::size_t{0}}) {
      parallel::SetMorselRows(rows);
      runs.push_back(run());
    }
  }
  parallel::SetMorselRows(0);
  for (const Sums& got : runs) EXPECT_EQ(got, runs.front());
  // The sums are the plain per-country ones up to rounding.
  std::vector<std::pair<double, std::uint64_t>> naive(Countries().size());
  for (std::size_t e = 0; e < db_->num_events(); ++e) {
    const CountryId c = db_->event_country()[e];
    if (c == kNoCountry) continue;
    naive[c].first += db_->events_tone()[e];
    ++naive[c].second;
  }
  for (std::size_t c = 0; c < naive.size(); ++c) {
    EXPECT_EQ(runs.front()[c].second, naive[c].second) << "country " << c;
    EXPECT_NEAR(runs.front()[c].first, naive[c].first,
                1e-9 * (1.0 + std::abs(naive[c].first)))
        << "country " << c;
  }
}

TEST(QuarterlyInvarianceTest, QuarterlyDelayStats) {
  // The Tiny dataset spans one quarter, so this kernel gets a hand-built
  // one over eight: per quarter five events, each with a few mentions at
  // mixed delays, one of them negative (the Table II defect).
  TempDir dir("quarterly_invariance");
  testing::TestDbBuilder builder;
  constexpr std::int64_t kBase = 1'600'000;  // 2015
  constexpr std::int64_t kQuarter = 91 * 96;  // intervals per quarter
  const char* kSources[] = {"a.com", "b.com", "c.com", "d.com", "e.com"};
  for (std::int64_t q = 0; q < 8; ++q) {
    for (std::int64_t e = 0; e < 5; ++e) {
      const std::int64_t at = kBase + q * kQuarter + e * 300;
      const auto event = builder.AddEvent(at);
      for (std::int64_t m = 0; m < 2 + (q + e) % 4; ++m) {
        builder.AddMention(event, at + (m * 7 + q * 3 + e) % 40 - 2,
                           kSources[m]);
      }
    }
  }
  auto built = builder.Build(dir.path());
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const engine::Database& db = *built;
  // Fig 10: per calendar quarter of capture, the average and median of
  // the non-negative delays.
  const auto window = engine::QuartersOf(db);
  const auto nq = static_cast<std::size_t>(window.count);
  std::vector<std::vector<std::int64_t>> delays(nq);
  for (std::uint64_t i = 0; i < db.num_mentions(); ++i) {
    const std::int64_t at = db.mention_interval()[i];
    const std::int64_t d = at - db.mention_event_interval()[i];
    const QuarterId q = QuarterOfUnixSeconds(IntervalStartUnixSeconds(at));
    if (d < 0) continue;
    delays[static_cast<std::size_t>(q - window.first)].push_back(d);
  }
  QuarterlyDelay naive;
  naive.first_quarter = window.first;
  naive.average.assign(nq, 0.0);
  naive.median.assign(nq, 0);
  for (std::size_t q = 0; q < nq; ++q) {
    auto& v = delays[q];
    if (v.empty()) continue;
    std::sort(v.begin(), v.end());
    double sum = 0.0;
    for (const std::int64_t d : v) sum += static_cast<double>(d);
    naive.average[q] = sum / static_cast<double>(v.size());
    naive.median[q] = NaiveMedian(v);
  }
  ASSERT_GE(nq, 8u);
  for (const std::size_t rows : kMorselSizes) {
    parallel::SetMorselRows(rows);
    const auto got = QuarterlyDelayStats(db);
    EXPECT_EQ(got.first_quarter, naive.first_quarter);
    EXPECT_EQ(got.average, naive.average);
    EXPECT_EQ(got.median, naive.median);
  }
  parallel::SetMorselRows(0);
  // Partition k of 3 owns the quarters q % 3 == k and leaves the rest 0.
  QuarterlyDelay joined = naive;
  joined.average.assign(nq, 0.0);
  joined.median.assign(nq, 0);
  for (std::uint32_t k = 0; k < 3; ++k) {
    const auto got = QuarterlyDelayStats(db, k, 3);
    for (std::size_t q = 0; q < nq; ++q) {
      if (q % 3 != k) {
        EXPECT_EQ(got.average[q], 0.0);
        EXPECT_EQ(got.median[q], 0);
        continue;
      }
      joined.average[q] = got.average[q];
      joined.median[q] = got.median[q];
    }
  }
  EXPECT_EQ(joined.average, naive.average);
  EXPECT_EQ(joined.median, naive.median);
}

}  // namespace
}  // namespace gdelt::analysis
