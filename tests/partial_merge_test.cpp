// Round-trip tests for the partial-aggregate layer (serve/partial.hpp):
// every query kind, rendered as per-shard frames and merged
// back, must reproduce the single-node renderer's text byte for byte —
// at 1 to 64 shards (more shards than the database has rows included),
// under both matrix encodings, restricted and not.
// Plus the merger's rejection paths: wrong version, duplicate shards,
// mismatched kinds, frames from a different partition count.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "analysis/country.hpp"
#include "analysis/delay.hpp"
#include "analysis/tone.hpp"
#include "convert/converter.hpp"
#include "engine/database.hpp"
#include "gen/emit.hpp"
#include "gen/generator.hpp"
#include "gtime/timestamp.hpp"
#include "parallel/morsel.hpp"
#include "partial_fixture.hpp"
#include "serve/json.hpp"
#include "serve/partial.hpp"
#include "serve/protocol.hpp"
#include "serve/render.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace gdelt::serve {
namespace {

using ::gdelt::testing::JsonEdit;
using ::gdelt::testing::JsonMutations;
using ::gdelt::testing::TempDir;
using ::gdelt::testing::TestDbBuilder;

/// Partition counts every round trip is checked at. 64 exceeds both the
/// event and the mention count of the test database, so tail partitions
/// are empty.
constexpr std::uint32_t kShardCounts[] = {1, 2, 3, 4, 8, 64};

/// The registry's kinds, or only those that take a filter.
std::vector<std::string> PartialKinds(bool filtered_only = false) {
  std::vector<std::string> out;
  for (const QueryKindSpec& spec : QueryKinds()) {
    if (spec.filtered || !filtered_only) {
      out.emplace_back(spec.name);
    }
  }
  return out;
}

/// Restores the process-global matrix encoding on scope exit so a
/// failing test cannot poison its neighbors.
class EncodingGuard {
 public:
  explicit EncodingGuard(PartialMatrixEncoding enc) {
    SetPartialMatrixEncoding(enc);
  }
  ~EncodingGuard() { SetPartialMatrixEncoding(PartialMatrixEncoding::kAuto); }
};

class PartialMergeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("partial");
    auto db = ::gdelt::testing::BuildPartialFixture(dir_->path());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::make_unique<engine::Database>(std::move(*db));
  }

  static Request MakeRequest(const std::string& kind, std::size_t top,
                             const std::string& extra = "") {
    std::string line = "{\"query\":\"" + kind + "\",\"top\":" +
                       std::to_string(top) + extra + "}";
    auto r = ParseRequest(line);
    EXPECT_TRUE(r.ok()) << line << ": " << r.status().ToString();
    return r.ok() ? *r : Request{};
  }

  std::string SingleNode(const Request& r) {
    auto rendered = RenderQuery(*db_, r);
    EXPECT_TRUE(rendered.ok()) << rendered.status().ToString();
    return rendered.ok() ? rendered->text : std::string();
  }

  /// Renders every partition of `r`, parses the frames and merges them,
  /// last shard first: a router merges frames in arrival order.
  Result<std::string> ViaPartials(const Request& r, std::uint32_t of) {
    std::vector<JsonValue> frames;
    for (std::uint32_t shard = of; shard-- > 0;) {
      Request sub = r;
      sub.partial = true;
      sub.shard = shard;
      sub.of = of;
      auto frame =
          RenderPartialFrame(*db_, sub, parallel::Backend::kMorselPool);
      GDELT_RETURN_IF_ERROR(frame.status());
      auto parsed = JsonValue::Parse(frame->text);
      GDELT_RETURN_IF_ERROR(parsed.status());
      frames.push_back(std::move(*parsed));
    }
    return MergePartialFrames(r, frames);
  }

  void ExpectRoundTrip(const Request& r) {
    const std::string truth = SingleNode(r);
    ASSERT_FALSE(truth.empty());
    for (const std::uint32_t of : kShardCounts) {
      auto merged = ViaPartials(r, of);
      ASSERT_TRUE(merged.ok())
          << r.kind << " of=" << of << ": " << merged.status().ToString();
      EXPECT_EQ(*merged, truth) << r.kind << " of=" << of;
    }
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<engine::Database> db_;
};

TEST_F(PartialMergeTest, AllKindsRoundTripByteIdentically) {
  for (const std::string& kind : PartialKinds()) {
    ExpectRoundTrip(MakeRequest(kind, 3));
  }
}

TEST_F(PartialMergeTest, TopLargerThanUniverseRoundTrips) {
  for (const std::string& kind : PartialKinds()) {
    ExpectRoundTrip(MakeRequest(kind, 50));
  }
}

TEST_F(PartialMergeTest, RestrictedKindsRoundTrip) {
  // The filterable kinds, under a confidence floor and a time window
  // that both actually drop mentions.
  for (const std::string& kind : PartialKinds(/*filtered_only=*/true)) {
    ExpectRoundTrip(MakeRequest(kind, 3, ",\"min_confidence\":45"));
    ExpectRoundTrip(
        MakeRequest(kind, 3, ",\"from\":\"20150101000000\""));
  }
}

TEST_F(PartialMergeTest, TopZeroRoundTrips) {
  // An empty top-k is a 0x0 matrix on both paths, never "every source".
  const auto expect_top_zero = [this](const Request& r) {
    const std::string truth = SingleNode(r);
    ASSERT_FALSE(truth.empty()) << r.kind;
    for (const std::uint32_t of : {1u, 2u, 3u}) {
      auto merged = ViaPartials(r, of);
      ASSERT_TRUE(merged.ok())
          << r.kind << " of=" << of << ": " << merged.status().ToString();
      EXPECT_EQ(*merged, truth) << r.kind << " of=" << of;
    }
  };
  for (const std::string& kind : PartialKinds()) {
    expect_top_zero(MakeRequest(kind, 0));
  }
  expect_top_zero(MakeRequest("coreport", 0, ",\"min_confidence\":45"));
}

TEST_F(PartialMergeTest, RestrictedBlockEdgeWindowRoundTrips) {
  // A table of several zone-map blocks whose window starts and ends
  // exactly on block edges: 16 rows per interval in capture order, so
  // block b holds intervals [256b, 256b + 256) past the base.
  constexpr std::size_t kBlock = engine::Database::kZoneRows;
  constexpr std::int64_t kBase = 40'000;
  TestDbBuilder builder;
  std::vector<std::uint64_t> events;
  for (int i = 0; i < 32; ++i) {
    const CountryId country =
        i % 4 == 3 ? kNoCountry : static_cast<CountryId>(1 + i % 3);
    events.push_back(builder.AddEvent(kBase, country));
  }
  const char* sources[] = {"a.com", "b.com", "c.com", "d.com", "e.com"};
  for (std::size_t r = 0; r < 3 * kBlock + 500; ++r) {
    builder.AddMention(events[(r * 7) % events.size()],
                       kBase + static_cast<std::int64_t>(r / 16),
                       sources[(r / 3) % 5],
                       static_cast<std::uint8_t>(30 + r % 60));
  }
  auto db = builder.Build(dir_->path());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  db_ = std::make_unique<engine::Database>(std::move(*db));

  const auto stamp = [](std::int64_t interval) {
    return FormatGdeltTimestamp(IntervalStartCivil(interval));
  };
  const std::string window =
      ",\"from\":\"" + stamp(kBase + kBlock / 16) + "\",\"to\":\"" +
      stamp(kBase + 2 * kBlock / 16) + "\"";
  for (const std::string& kind : PartialKinds(/*filtered_only=*/true)) {
    for (const std::string& extra :
         {window, window + ",\"min_confidence\":60"}) {
      const Request r = MakeRequest(kind, 3, extra);
      ASSERT_EQ(r.filter.begin_interval,
                kBase + static_cast<std::int64_t>(kBlock / 16));
      const std::string truth = SingleNode(r);
      ASSERT_FALSE(truth.empty());
      for (const std::uint32_t of : {1u, 2u, 3u, 8u}) {
        auto merged = ViaPartials(r, of);
        ASSERT_TRUE(merged.ok())
            << kind << " of=" << of << ": " << merged.status().ToString();
        EXPECT_EQ(*merged, truth) << kind << extra << " of=" << of;
      }
    }
  }
}

TEST_F(PartialMergeTest, DenseEncodingRoundTrips) {
  EncodingGuard guard(PartialMatrixEncoding::kDense);
  for (const std::string& kind : PartialKinds()) {
    ExpectRoundTrip(MakeRequest(kind, 4));
  }
}

TEST_F(PartialMergeTest, SparseEncodingRoundTrips) {
  EncodingGuard guard(PartialMatrixEncoding::kSparse);
  for (const std::string& kind : PartialKinds()) {
    ExpectRoundTrip(MakeRequest(kind, 4));
  }
}

TEST_F(PartialMergeTest, MoreShardsThanEventsRoundTrips) {
  // 32 partitions over 14 events: the tail partitions are empty (the
  // range splitter clamps), and their frames must merge as no-ops.
  const Request r = MakeRequest("coreport", 3);
  const std::string truth = SingleNode(r);
  auto merged = ViaPartials(r, 32);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(*merged, truth);
}

TEST_F(PartialMergeTest, GeneratedMultiBlockDatabaseRoundTripsAtAnyOf) {
  // A generated database of several 1024-event tone blocks (the last one
  // short) and several quarters: every kind's merge equals its whole
  // render at every partition count from 1 to 32, so past the block and
  // quarter counts too, where the tail partitions own nothing.
  auto cfg = gen::GeneratorConfig::Tiny();
  cfg.end_date = {2015, 8, 18, 0, 0, 0};
  cfg.intervals_per_chunk = 672;
  cfg.events_per_interval_mean = 0.3;
  cfg.defect_missing_archives = 0;
  ASSERT_TRUE(gen::EmitDataset(gen::GenerateDataset(cfg), cfg,
                               dir_->path() + "/raw")
                  .ok());
  convert::ConvertOptions options;
  options.input_dir = dir_->path() + "/raw";
  options.output_dir = dir_->path() + "/gen_db";
  ASSERT_TRUE(convert::ConvertDataset(options).ok());
  auto db = engine::Database::Load(options.output_dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  db_ = std::make_unique<engine::Database>(std::move(*db));
  ASSERT_GT(db_->num_events(), 4 * analysis::kToneBlockEvents);
  ASSERT_NE(db_->num_events() % analysis::kToneBlockEvents, 0u);
  ASSERT_LT(analysis::NumToneBlocks(*db_), 32u);

  for (const std::string& kind : PartialKinds()) {
    const Request r = MakeRequest(kind, 3);
    const std::string truth = SingleNode(r);
    ASSERT_FALSE(truth.empty()) << kind;
    for (std::uint32_t of = 1; of <= 32; ++of) {
      auto merged = ViaPartials(r, of);
      ASSERT_TRUE(merged.ok())
          << kind << " of=" << of << ": " << merged.status().ToString();
      EXPECT_EQ(*merged, truth) << kind << " of=" << of;
    }
  }
}

TEST_F(PartialMergeTest, SubsetOfFramesMergesDegraded) {
  // Degraded mode: merging only shard 0 of 2 must still succeed (the
  // router reports the missing shard separately); the text undercounts
  // rather than erroring.
  const Request r = MakeRequest("top-sources", 3);
  Request sub = r;
  sub.partial = true;
  sub.shard = 0;
  sub.of = 2;
  auto frame = RenderPartialFrame(*db_, sub, parallel::Backend::kMorselPool);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  auto parsed = JsonValue::Parse(frame->text);
  ASSERT_TRUE(parsed.ok());
  std::vector<JsonValue> frames;
  frames.push_back(std::move(*parsed));
  auto merged = MergePartialFrames(r, frames);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_FALSE(merged->empty());
}

TEST_F(PartialMergeTest, WireLineReproducesInProcessFrame) {
  // The request line the router actually sends, parsed back through the
  // strict protocol parser, must select the same partition.
  const Request r = MakeRequest("follow", 3);
  const std::string line = BuildShardRequestLine(r, 1, 2);
  auto sub = ParseRequest(line);
  ASSERT_TRUE(sub.ok()) << line << ": " << sub.status().ToString();
  EXPECT_TRUE(sub->partial);
  EXPECT_EQ(sub->shard, 1u);
  EXPECT_EQ(sub->of, 2u);
  auto wire = RenderPartialFrame(*db_, *sub, parallel::Backend::kMorselPool);
  ASSERT_TRUE(wire.ok());

  Request direct = r;
  direct.partial = true;
  direct.shard = 1;
  direct.of = 2;
  auto in_process =
      RenderPartialFrame(*db_, direct, parallel::Backend::kMorselPool);
  ASSERT_TRUE(in_process.ok());
  EXPECT_EQ(wire->text, in_process->text);
}

TEST_F(PartialMergeTest, PreCancelledTokenSkipsTheScanMorsels) {
  // The mention-range histogram of an unrestricted shard partial, the two
  // country-coreport passes, the quarterly-delay scan and the stats,
  // quarterly and tone kernels poll the cancel token per morsel, so a
  // token cancelled up front skips their morsels.
  util::CancelToken cancelled;
  cancelled.Cancel(util::CancelReason::kDisconnect);
  const auto skipped = [] {
    return parallel::MorselPool::Shared().stats().morsels_skipped;
  };
  for (const char* kind : {"top-sources", "cross-report"}) {
    SCOPED_TRACE(kind);
    Request r = MakeRequest(kind, 3);
    r.partial = true;
    r.shard = 0;
    r.of = 2;
    const auto before = skipped();
    ASSERT_TRUE(RenderPartialFrame(*db_, r, parallel::Backend::kMorselPool,
                                   &cancelled)
                    .ok());
    EXPECT_GT(skipped(), before);
  }
  auto before = skipped();
  (void)analysis::ComputeCountryCoReporting(*db_, kWholeRange, &cancelled);
  EXPECT_GT(skipped(), before);
  before = skipped();
  (void)analysis::QuarterlyDelayStats(*db_, 0, 1, &cancelled);
  EXPECT_GT(skipped(), before);
  // The whole renders of the kinds the router relays whole.
  for (const char* kind : {"stats", "quarterly", "tone"}) {
    SCOPED_TRACE(kind);
    before = skipped();
    const auto whole = RenderQuery(*db_, MakeRequest(kind, 3), &cancelled);
    EXPECT_EQ(whole.status().code(), StatusCode::kCancelled);
    EXPECT_GT(skipped(), before);
  }
}

TEST_F(PartialMergeTest, MergerRejectsBadFrames) {
  const Request r = MakeRequest("top-sources", 3);
  Request sub = r;
  sub.partial = true;
  sub.shard = 0;
  sub.of = 2;
  auto frame = RenderPartialFrame(*db_, sub, parallel::Backend::kMorselPool);
  ASSERT_TRUE(frame.ok());
  const std::string good = frame->text;

  const auto merge_one = [&r](const std::string& text) {
    auto parsed = JsonValue::Parse(text);
    EXPECT_TRUE(parsed.ok()) << text;
    std::vector<JsonValue> frames;
    frames.push_back(std::move(*parsed));
    return MergePartialFrames(r, frames);
  };

  // An older protocol revision.
  {
    std::string bad = good;
    const auto pos = bad.find("\"v\":2");
    ASSERT_NE(pos, std::string::npos) << good;
    bad.replace(pos, 5, "\"v\":1");
    EXPECT_FALSE(merge_one(bad).ok());
  }
  // Frame for a different kind.
  {
    std::string bad = good;
    const auto pos = bad.find("top-sources");
    ASSERT_NE(pos, std::string::npos);
    bad.replace(pos, 11, "follow-xxxx");
    EXPECT_FALSE(merge_one(bad).ok());
  }
  // Not an object.
  EXPECT_FALSE(merge_one("[1,2,3]").ok());

  // Duplicate shard ids.
  {
    auto parsed = JsonValue::Parse(good);
    ASSERT_TRUE(parsed.ok());
    std::vector<JsonValue> frames;
    frames.push_back(*parsed);
    frames.push_back(std::move(*parsed));
    EXPECT_FALSE(MergePartialFrames(r, frames).ok());
  }
  // Mixed partition counts: an of=4 frame next to an of=2 frame.
  {
    Request other = r;
    other.partial = true;
    other.shard = 1;
    other.of = 4;
    auto other_frame =
        RenderPartialFrame(*db_, other, parallel::Backend::kMorselPool);
    ASSERT_TRUE(other_frame.ok());
    auto a = JsonValue::Parse(good);
    auto b = JsonValue::Parse(other_frame->text);
    ASSERT_TRUE(a.ok() && b.ok());
    std::vector<JsonValue> frames;
    frames.push_back(std::move(*a));
    frames.push_back(std::move(*b));
    EXPECT_FALSE(MergePartialFrames(r, frames).ok());
  }
}

TEST_F(PartialMergeTest, MergerRejectsOversizedAllocationClaims) {
  // Frame fields that size merger-side allocations (the seen-shard
  // table, the n*n co-report accumulator, the quarterly delay arrays)
  // must be bounded BEFORE the allocation happens: a hostile frame
  // claiming of=2^62 or q_count=2^62 has to come back as a frame error,
  // not a multi-exabyte vector::assign.
  const auto merge_one = [](const Request& req, const std::string& text) {
    auto parsed = JsonValue::Parse(text);
    EXPECT_TRUE(parsed.ok()) << text;
    std::vector<JsonValue> frames;
    frames.push_back(std::move(*parsed));
    return MergePartialFrames(req, frames);
  };
  const auto render_frame = [this](const Request& req) {
    Request sub = req;
    sub.partial = true;
    sub.shard = 0;
    sub.of = 2;
    auto frame = RenderPartialFrame(*db_, sub, parallel::Backend::kMorselPool);
    EXPECT_TRUE(frame.ok()) << frame.status().ToString();
    return frame.ok() ? frame->text : std::string();
  };

  // Frame 'of' beyond kMaxPartitions sizes the seen-shard table.
  {
    const Request r = MakeRequest("top-sources", 3);
    std::string bad = render_frame(r);
    const auto pos = bad.find("\"of\":2");
    ASSERT_NE(pos, std::string::npos) << bad;
    bad.replace(pos, 6, "\"of\":4611686018427387904");
    auto merged = merge_one(r, bad);
    EXPECT_FALSE(merged.ok());
    EXPECT_NE(merged.status().ToString().find("partition limit"),
              std::string::npos)
        << merged.status().ToString();
  }
  // A subset larger than the requested top_k sizes the n*n accumulator
  // in the matrix merges; the shard can never honestly report more than
  // it was asked for.
  for (const char* kind : {"coreport", "follow"}) {
    const std::string good = render_frame(MakeRequest(kind, 3));
    ASSERT_FALSE(good.empty());
    const Request small = MakeRequest(kind, 2);
    auto merged = merge_one(small, good);
    EXPECT_FALSE(merged.ok()) << kind;
    EXPECT_NE(merged.status().ToString().find("larger than requested top_k"),
              std::string::npos)
        << kind << ": " << merged.status().ToString();
  }
  // Delay frames carry q_count, which sizes two quarterly arrays.
  {
    const Request r = MakeRequest("delay", 3);
    std::string bad = render_frame(r);
    const auto pos = bad.find("\"q_count\":");
    ASSERT_NE(pos, std::string::npos) << bad;
    auto end = pos + 10;
    while (end < bad.size() && bad[end] >= '0' && bad[end] <= '9') ++end;
    bad.replace(pos, end - pos, "\"q_count\":4611686018427387904");
    auto merged = merge_one(r, bad);
    EXPECT_FALSE(merged.ok());
    EXPECT_NE(merged.status().ToString().find("quarterly span"),
              std::string::npos)
        << merged.status().ToString();
  }
}

TEST_F(PartialMergeTest, MergerRejectsMismatchedLabelCounts) {
  // Every label or parallel array is tied to the dimension it labels: a
  // `domains` longer than the subset or top list it names, or follow's
  // `articles` one short, is a frame error, never an index past the end
  // of the matrix, the delay rows or `articles`.
  // Renders a 1-shard frame of `kind`, applies `edit` at the first
  // element of its array `key`, and merges it.
  const auto merge_edited = [this](const std::string& kind,
                                   const std::string& key, auto edit) {
    const Request r = MakeRequest(kind, 3);
    Request sub = r;
    sub.partial = true;
    auto frame = RenderPartialFrame(*db_, sub, parallel::Backend::kMorselPool);
    EXPECT_TRUE(frame.ok()) << frame.status().ToString();
    std::string text = frame.ok() ? frame->text : std::string();
    const std::size_t open = text.find("\"" + key + "\":[");
    EXPECT_NE(open, std::string::npos) << text;
    if (open == std::string::npos) {
      return Result<std::string>(status::Internal(key));
    }
    edit(text, open + key.size() + 4);
    auto parsed = JsonValue::Parse(text);
    EXPECT_TRUE(parsed.ok()) << text;
    std::vector<JsonValue> frames;
    frames.push_back(std::move(*parsed));
    return MergePartialFrames(r, frames);
  };
  const auto four_more = [](std::string& text, std::size_t at) {
    text.insert(at, R"("x1.com","x2.com","x3.com","x4.com",)");
  };
  const auto one_short = [](std::string& text, std::size_t at) {
    text.erase(at, text.find(',', at) - at + 1);
  };
  for (const char* kind : {"coreport", "follow", "delay"}) {
    const auto merged = merge_edited(kind, "domains", four_more);
    EXPECT_EQ(merged.status().code(), StatusCode::kInvalidArgument)
        << kind << ": " << merged.status().ToString();
  }
  const auto merged = merge_edited("follow", "articles", one_short);
  EXPECT_EQ(merged.status().code(), StatusCode::kInvalidArgument)
      << merged.status().ToString();
}

TEST_F(PartialMergeTest, OwnedRowsRefuseTwoOwnersAndShortRows) {
  // Each element of an owned row belongs to one partition, and the
  // others ship 0 there. Shard 0's frame relabelled as shard 1 fills the
  // same elements twice, which no honest scatter does: the merge refuses
  // it as a disagreement instead of keeping either value.
  for (const char* kind : {"delay", "quarterly"}) {
    SCOPED_TRACE(kind);
    const Request r = MakeRequest(kind, 3);
    Request sub = r;
    sub.partial = true;
    sub.shard = 0;
    sub.of = 2;
    auto frame = RenderPartialFrame(*db_, sub, parallel::Backend::kMorselPool);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    std::string twin = frame->text;
    const std::size_t shard = twin.find("\"shard\":0");
    ASSERT_NE(shard, std::string::npos) << twin;
    twin.replace(shard, 9, "\"shard\":1");
    auto a = JsonValue::Parse(frame->text);
    auto b = JsonValue::Parse(twin);
    ASSERT_TRUE(a.ok() && b.ok());
    std::vector<JsonValue> frames;
    frames.push_back(std::move(*a));
    frames.push_back(std::move(*b));
    const auto merged = MergePartialFrames(r, frames);
    EXPECT_EQ(merged.status().code(), StatusCode::kInternal)
        << merged.status().ToString();
    EXPECT_NE(merged.status().ToString().find("disagree"), std::string::npos)
        << merged.status().ToString();
  }
  // A row one element short of its `top` or `q_count`.
  const std::pair<const char*, const char*> rows[] = {
      {"delay", "min"}, {"delay", "q_avg"}, {"quarterly", "articles"}};
  for (const auto& [kind, key] : rows) {
    SCOPED_TRACE(std::string(kind) + " " + key);
    const Request r = MakeRequest(kind, 3);
    Request sub = r;
    sub.partial = true;
    auto frame = RenderPartialFrame(*db_, sub, parallel::Backend::kMorselPool);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    std::string text = frame->text;
    const std::string open = "\"" + std::string(key) + "\":[";
    const std::size_t row = text.find(open);
    ASSERT_NE(row, std::string::npos) << text;
    const std::size_t at = row + open.size();
    const std::size_t end = text.find_first_of(",]", at);
    text.erase(at, end - at + (text[end] == ',' ? 1 : 0));
    auto parsed = JsonValue::Parse(text);
    ASSERT_TRUE(parsed.ok()) << text;
    const auto merged = MergePartialFrames(r, std::span(&*parsed, 1));
    EXPECT_EQ(merged.status().code(), StatusCode::kInvalidArgument)
        << merged.status().ToString();
    EXPECT_NE(merged.status().ToString().find("does not match its dimension"),
              std::string::npos)
        << merged.status().ToString();
  }
}

TEST_F(PartialMergeTest, PlantedValuesNeverSizeAnAllocation) {
  // Values no honest shard sends, planted in the first element of a
  // 1-shard frame's array: the merger rejects an index out of its range
  // or a length off its dimension, and sizes nothing from a value.
  const auto merge_planted = [this](const std::string& kind,
                                    const std::string& key,
                                    const std::string& value) {
    const Request r = MakeRequest(kind, 3);
    Request sub = r;
    sub.partial = true;
    auto frame = RenderPartialFrame(*db_, sub, parallel::Backend::kMorselPool);
    EXPECT_TRUE(frame.ok()) << frame.status().ToString();
    std::string text = frame.ok() ? frame->text : std::string();
    const std::size_t open = text.find("\"" + key + "\":[");
    EXPECT_NE(open, std::string::npos) << text;
    if (open == std::string::npos) {
      return Result<std::string>(status::Internal(key));
    }
    const std::size_t at = open + key.size() + 4;
    text.replace(at, text.find_first_of(",]", at) - at, value);
    auto parsed = JsonValue::Parse(text);
    EXPECT_TRUE(parsed.ok()) << text;
    std::vector<JsonValue> frames;
    frames.push_back(std::move(*parsed));
    return MergePartialFrames(r, frames);
  };
  constexpr const char* kHuge = "4611686018427387904";  // 2^62
  // An event size of 2^62 is only the largest size: the histogram merge
  // sorts the sizes and never indexes by one.
  const auto stats = merge_planted("stats", "sizes", kHuge);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->find("4,611,686,018,427,387,904"), std::string::npos)
      << *stats;
  // A tone block of 2^62 only sorts last; a bin past the bins is refused.
  EXPECT_TRUE(merge_planted("tone", "block", kHuge).ok());
  const auto bin = merge_planted("tone", "bin", kHuge);
  EXPECT_EQ(bin.status().code(), StatusCode::kInvalidArgument)
      << bin.status().ToString();
  EXPECT_NE(bin.status().ToString().find("tone bin out of range"),
            std::string::npos)
      << bin.status().ToString();
  // A q_count of 2^62 over a row one short: refused, and nothing is
  // sized from the count.
  {
    const Request r = MakeRequest("quarterly", 3);
    Request sub = r;
    sub.partial = true;
    auto frame = RenderPartialFrame(*db_, sub, parallel::Backend::kMorselPool);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    std::string text = frame->text;
    const std::size_t count = text.find("\"q_count\":");
    ASSERT_NE(count, std::string::npos) << text;
    const std::size_t digits = count + 10;
    text.replace(digits, text.find(',', digits) - digits, kHuge);
    const std::size_t row = text.find("\"active\":[");
    ASSERT_NE(row, std::string::npos) << text;
    const std::size_t at = row + 10;
    const std::size_t end = text.find_first_of(",]", at);
    text.erase(at, end - at + (text[end] == ',' ? 1 : 0));
    auto parsed = JsonValue::Parse(text);
    ASSERT_TRUE(parsed.ok()) << text;
    const auto merged = MergePartialFrames(r, std::span(&*parsed, 1));
    EXPECT_EQ(merged.status().code(), StatusCode::kInvalidArgument)
        << merged.status().ToString();
  }
  // A per-quarter sum one too long.
  const auto sum = merge_planted("quarterly", "events", "7,7");
  EXPECT_NE(sum.status().ToString().find("does not match its dimension"),
            std::string::npos)
      << sum.status().ToString();
}

TEST_F(PartialMergeTest, FrameMutationsNeverCrashTheMerger) {
  // Deterministic frame fuzzing: each kind's 3-shard frames,
  // one frame mutated at a time and merged alone and with the other two.
  // Every structural edit (drop or append an array element, delete a
  // member) is tried; the value edits (a number set to 2^62 or -1, a
  // string turned into a number) are sampled with a fixed seed. The
  // merger must answer each set with an error or text — the sanitizer
  // builds run this, so an out-of-bounds read fails it.
  constexpr std::size_t kValueEditsPerFrame = 40;
  Xoshiro256 rng(17);
  std::size_t merges = 0;
  std::size_t rejected = 0;
  for (const std::string& kind : PartialKinds()) {
    SCOPED_TRACE(kind);
    const Request r = MakeRequest(kind, 3);
    std::vector<std::string> texts;
    std::vector<JsonValue> frames;
    for (std::uint32_t shard = 0; shard < 3; ++shard) {
      Request sub = r;
      sub.partial = true;
      sub.shard = shard;
      sub.of = 3;
      auto frame =
          RenderPartialFrame(*db_, sub, parallel::Backend::kMorselPool);
      ASSERT_TRUE(frame.ok()) << frame.status().ToString();
      texts.push_back(frame->text);
      auto parsed = JsonValue::Parse(frame->text);
      ASSERT_TRUE(parsed.ok());
      frames.push_back(std::move(*parsed));
    }
    for (std::size_t victim = 0; victim < texts.size(); ++victim) {
      std::vector<JsonEdit> edits;
      std::vector<JsonEdit> values;
      for (const JsonEdit& e : JsonMutations(texts[victim])) {
        (e.structural ? edits : values).push_back(e);
      }
      for (std::size_t k = 0; k < kValueEditsPerFrame && !values.empty();
           ++k) {
        const std::size_t pick = rng() % values.size();
        edits.push_back(values[pick]);
        values.erase(values.begin() + static_cast<std::ptrdiff_t>(pick));
      }
      for (const JsonEdit& e : edits) {
        std::string text = texts[victim];
        text.replace(e.at, e.len, e.with);
        auto mutated = JsonValue::Parse(text);
        ASSERT_TRUE(mutated.ok()) << text;
        // Alone (degraded mode), so the first frame's carried values
        // reach the finish; then among the unmutated frames.
        std::vector<JsonValue> set = frames;
        set[victim] = *mutated;
        for (const auto& merged :
             {MergePartialFrames(r, std::span(&*mutated, 1)),
              MergePartialFrames(r, set)}) {
          ++merges;
          if (!merged.ok()) ++rejected;
        }
      }
    }
  }
  EXPECT_GT(rejected, merges / 2) << rejected << " of " << merges;
}

TEST_F(PartialMergeTest, ParserRejectsBadPartialRequests) {
  // Every kind parses as a partial request, the ones the router relays
  // whole included.
  EXPECT_TRUE(
      ParseRequest(R"({"query":"stats","partial":true})").ok());
  EXPECT_TRUE(
      ParseRequest(R"({"query":"tone","partial":true,"shard":0,"of":2})")
          .ok());
  // An unknown kind.
  EXPECT_FALSE(
      ParseRequest(R"({"query":"no-such-kind","partial":true})").ok());
  // Shard out of range.
  EXPECT_FALSE(
      ParseRequest(
          R"({"query":"coreport","partial":true,"shard":2,"of":2})")
          .ok());
  // shard/of without partial.
  EXPECT_FALSE(
      ParseRequest(R"({"query":"coreport","shard":0,"of":2})").ok());
}

}  // namespace
}  // namespace gdelt::serve
