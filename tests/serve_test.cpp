// Tests for the query service: wire JSON, strict request parsing, the
// epoch-keyed result cache, the admission-controlled server over real
// loopback sockets, and graceful drain.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.hpp"
#include "gen/generator.hpp"
#include "gen/emit.hpp"
#include "parallel/morsel.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/line_server.hpp"
#include "serve/metrics.hpp"
#include "serve/partial.hpp"
#include "serve/prom.hpp"
#include "serve/protocol.hpp"
#include "serve/render.hpp"
#include "serve/server.hpp"
#include "stream/delta_store.hpp"
#include "test_util.hpp"
#include "trace/trace.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace gdelt::serve {
namespace {

using ::gdelt::testing::JsonEdit;
using ::gdelt::testing::JsonMutations;
using ::gdelt::testing::Median;
using ::gdelt::testing::RawLineSocket;
using ::gdelt::testing::TempDir;
using ::gdelt::testing::TestDbBuilder;

// ---------------------------------------------------------------- JSON --

TEST(JsonTest, ParsesFlatObject) {
  const auto v = JsonValue::Parse(
      R"({"query":"stats","top":5,"deep":false,"note":null,"xs":[1,2]})");
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(v->is_object());
  EXPECT_EQ(v->Find("query")->AsString(), "stats");
  EXPECT_EQ(v->Find("top")->AsInt(), 5);
  EXPECT_FALSE(v->Find("deep")->AsBool(true));
  EXPECT_EQ(v->Find("note")->kind(), JsonValue::Kind::kNull);
  EXPECT_EQ(v->Find("xs")->elements().size(), 2u);
  EXPECT_EQ(v->Find("missing"), nullptr);
}

TEST(JsonTest, TakeMovesAMemberOut) {
  auto v = JsonValue::Parse(R"({"ok":true,"partial":{"v":1,"xs":[1,2]}})");
  ASSERT_TRUE(v.ok());
  const JsonValue frame = v->Take("partial");
  ASSERT_TRUE(frame.is_object());
  EXPECT_EQ(frame.Find("v")->AsInt(), 1);
  EXPECT_EQ(frame.Find("xs")->elements().size(), 2u);
  // The member stays, as null; other members are untouched.
  EXPECT_EQ(v->Find("partial")->kind(), JsonValue::Kind::kNull);
  EXPECT_TRUE(v->Find("ok")->AsBool());
  EXPECT_EQ(v->Take("missing").kind(), JsonValue::Kind::kNull);
  JsonValue scalar;
  EXPECT_EQ(scalar.Take("partial").kind(), JsonValue::Kind::kNull);
}

TEST(JsonTest, ParsesEscapes) {
  const auto v = JsonValue::Parse(R"({"s":"a\"b\\c\nd"})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->Find("s")->AsString(), "a\"b\\c\nd");
}

TEST(JsonTest, RejectsMalformed) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse(R"({"a":1} trailing)").ok());
  EXPECT_FALSE(JsonValue::Parse(R"({"a":"unterminated)").ok());
  EXPECT_FALSE(JsonValue::Parse("{'single':1}").ok());
  // Depth bomb stops at the parser's limit instead of recursing away.
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(JsonValue::Parse(deep).ok());
}

TEST(JsonTest, EscapesOnOutput) {
  std::string out;
  AppendJsonString(out, "a\"b\\c\nd\x01");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
}

// ------------------------------------------------------------ protocol --

TEST(ProtocolTest, ParsesDefaults) {
  const auto r = ParseRequest(R"({"query":"stats"})");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->kind, "stats");
  EXPECT_EQ(r->top_k, 10u);
  EXPECT_FALSE(r->restricted);
  EXPECT_TRUE(r->IsQuery());
}

TEST(ProtocolTest, ParsesFilterOptions) {
  const auto r = ParseRequest(
      R"({"query":"top-sources","top":3,"from":"20150225000000",)"
      R"("min_confidence":50})");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->top_k, 3u);
  EXPECT_TRUE(r->restricted);
  EXPECT_EQ(r->filter.min_confidence, 50);
  EXPECT_GT(r->filter.begin_interval, 0);
}

TEST(ProtocolTest, RejectsBadRequests) {
  EXPECT_FALSE(ParseRequest("not json").ok());
  EXPECT_FALSE(ParseRequest(R"([1,2,3])").ok());
  EXPECT_FALSE(ParseRequest(R"({"top":5})").ok());          // no query
  EXPECT_FALSE(ParseRequest(R"({"query":"stats","bogus":1})").ok());
  EXPECT_FALSE(ParseRequest(R"({"query":"stats","top":-1})").ok());
  EXPECT_FALSE(ParseRequest(R"({"query":"stats","top":"5"})").ok());
  EXPECT_FALSE(ParseRequest(R"({"query":"stats","from":"noon"})").ok());
  EXPECT_FALSE(ParseRequest(R"({"query":"ingest"})").ok());  // no paths
}

TEST(ProtocolTest, CanonicalKeyIgnoresSpelling) {
  const auto a = ParseRequest(R"({"query":"stats","top":10})");
  const auto b = ParseRequest(R"({ "top": 10, "query": "stats" })");
  const auto c = ParseRequest(R"({"query":"stats","top":9})");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(CanonicalKey(*a), CanonicalKey(*b));
  EXPECT_NE(CanonicalKey(*a), CanonicalKey(*c));
}

TEST(ProtocolTest, ParsesTraceFlag) {
  const auto r = ParseRequest(R"({"query":"stats","trace":true})");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->trace);
  const auto off = ParseRequest(R"({"query":"stats"})");
  ASSERT_TRUE(off.ok());
  EXPECT_FALSE(off->trace);
  EXPECT_FALSE(ParseRequest(R"({"query":"stats","trace":1})").ok());
}

// ----------------------------------------------------- latency histogram --

TEST(LatencyHistogramTest, BucketBoundaries) {
  LatencyHistogram h;
  h.Record(0.0);      // 0 us: bucket 0, not a phantom [1,2) bucket
  h.Record(5e-7);     // 0.5 us -> bucket 0
  h.Record(1e-6);     // 1 us -> bucket 0 ([0,2))
  h.Record(2e-6);     // 2 us: exactly on the edge -> bucket 1 ([2,4))
  h.Record(3e-6);     // -> bucket 1
  h.Record(4e-6);     // 4 us edge -> bucket 2
  h.Record(9.0);      // 9 s >= 2^23 us -> open-ended bucket 23
  h.Record(1000.0);   // far past the top edge still lands in bucket 23
  const auto snap = h.Snap();
  EXPECT_EQ(snap.count, 8u);
  EXPECT_EQ(snap.buckets[0], 3u);
  EXPECT_EQ(snap.buckets[1], 2u);
  EXPECT_EQ(snap.buckets[2], 1u);
  EXPECT_EQ(snap.buckets[LatencyHistogram::kBuckets - 1], 2u);
  std::uint64_t total = 0;
  for (const auto b : snap.buckets) total += b;
  EXPECT_EQ(total, snap.count);
}

TEST(LatencyHistogramTest, QuantileClampsToObservedMax) {
  LatencyHistogram h;
  h.Record(0.010);  // 10 ms -> bucket [8.192, 16.384) ms
  const auto snap = h.Snap();
  // The bucket's upper edge (16.384 ms) overshoots the only sample; every
  // quantile must clamp to the observed max instead.
  EXPECT_DOUBLE_EQ(snap.QuantileMs(0.5), snap.max_ms);
  EXPECT_DOUBLE_EQ(snap.QuantileMs(1.0), snap.max_ms);
  // Open-ended top bucket: without the clamp this would claim 16.7 s.
  LatencyHistogram big;
  big.Record(10.0);
  const auto big_snap = big.Snap();
  EXPECT_DOUBLE_EQ(big_snap.QuantileMs(0.99), big_snap.max_ms);
}

TEST(LatencyHistogramTest, QuantileZeroDoesNotInventLatency) {
  LatencyHistogram h;
  h.Record(1.0);  // one 1 s sample; bucket 0 is empty
  const auto snap = h.Snap();
  // q=0 used to rank 0 samples and report empty bucket 0's edge (2 us).
  EXPECT_GT(snap.QuantileMs(0.0), 100.0);
  LatencyHistogram empty;
  EXPECT_DOUBLE_EQ(empty.Snap().QuantileMs(0.5), 0.0);
}

TEST(LatencyHistogramTest, QuantilesAreMonotonicInQ) {
  LatencyHistogram h;
  for (int i = 0; i < 90; ++i) h.Record(1e-5);  // 10 us
  for (int i = 0; i < 10; ++i) h.Record(1e-2);  // 10 ms
  const auto snap = h.Snap();
  EXPECT_LE(snap.QuantileMs(0.5), snap.QuantileMs(0.9));
  EXPECT_LE(snap.QuantileMs(0.9), snap.QuantileMs(0.99));
  EXPECT_LT(snap.QuantileMs(0.5), 1.0);   // p50 is in the 10 us bucket
  EXPECT_GT(snap.QuantileMs(0.99), 1.0);  // p99 reaches the 10 ms bucket
}

// --------------------------------------------------------------- cache --

TEST(ResultCacheTest, LruEvictionAndEpochInvalidation) {
  ResultCache cache(2);
  EXPECT_FALSE(cache.Get("a", 1).has_value());
  cache.Put("a", 1, "A");
  cache.Put("b", 1, "B");
  EXPECT_EQ(cache.Get("a", 1).value(), "A");  // a is now most recent
  cache.Put("c", 1, "C");                     // evicts b
  EXPECT_FALSE(cache.Get("b", 1).has_value());
  EXPECT_EQ(cache.Get("a", 1).value(), "A");
  // Same key, newer epoch: observing epoch 2 sweeps EVERY epoch-1 entry
  // in the shard — none of them can ever be served again, so none of
  // them may keep occupying capacity or counters.
  EXPECT_FALSE(cache.Get("a", 2).has_value());
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.evicted_stale(), 2u);  // a and c, collected as stale
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 3u);
}

TEST(ResultCacheTest, StalePutDoesNotClobberNewerEpoch) {
  ResultCache cache(2);
  EXPECT_TRUE(cache.Put("k", 2, "fresh"));
  // A slow render keyed to the pre-ingest epoch finishes late: it must
  // not evict the post-ingest entry for the same key.
  EXPECT_FALSE(cache.Put("k", 1, "stale"));
  const auto hit = cache.GetTagged("k", 2);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit->text, "fresh");
  // Nor may a born-stale put park dead bytes under a different key once
  // the cache has observed the newer epoch.
  EXPECT_FALSE(cache.Put("other", 1, "stale"));
  EXPECT_FALSE(cache.Get("other", 1).has_value());
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(ResultCacheTest, ObserveEpochSweepsAllShardsEagerly) {
  // Large enough to run sharded (>= kShardThreshold), so the sweep must
  // reach every shard, not just the one a lookup happens to land in.
  ResultCache cache(256);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(cache.Put("k" + std::to_string(i), 1, "payload"));
  }
  EXPECT_EQ(cache.entries(), 64u);
  EXPECT_GT(cache.text_bytes(), 0u);
  cache.ObserveEpoch(2);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.text_bytes(), 0u);
  EXPECT_EQ(cache.evicted_stale(), 64u);
  // Every shard saw epoch 2, so epoch-1 puts are refused everywhere.
  EXPECT_FALSE(cache.Put("late", 1, "zombie"));
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(ResultCacheTest, GetTaggedSharesPayloadBytes) {
  ResultCache cache(4);
  ASSERT_TRUE(cache.Put("k", 1, std::string(1 << 16, 'x')));
  const auto a = cache.GetTagged("k", 1);
  const auto b = cache.GetTagged("k", 1);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  // A hit is a refcount bump on the stored string, never a copy.
  EXPECT_EQ(a->text.get(), b->text.get());
  EXPECT_EQ(a->text->size(), std::size_t{1} << 16);
}

TEST(ResultCacheTest, LateTagRoundTrips) {
  ResultCache cache(4);
  ASSERT_TRUE(cache.Put("k", 1, "text", /*late=*/true));
  const auto late = cache.GetTagged("k", 1);
  ASSERT_TRUE(late.has_value());
  EXPECT_TRUE(late->late);
  EXPECT_EQ(*late->text, "text");
  // An on-time render of the same key and epoch replaces the entry and
  // clears the tag.
  ASSERT_TRUE(cache.Put("k", 1, "text"));
  const auto on_time = cache.GetTagged("k", 1);
  ASSERT_TRUE(on_time.has_value());
  EXPECT_FALSE(on_time->late);
  EXPECT_EQ(cache.entries(), 1u);
}

// -------------------------------------------------------------- server --

/// Spins up a server over a small hand-built database on an ephemeral
/// loopback port.
class ServeTest : public ::testing::Test {
 protected:
  /// `filler_events` more random events (each with 0-5 mentions over 8
  /// sources) follow the six fixed mentions, for tests that need loops
  /// of several morsels.
  void StartServer(ServerOptions options, stream::DeltaStore* delta = nullptr,
                   int filler_events = 0) {
    dir_ = std::make_unique<TempDir>("serve");
    TestDbBuilder builder;
    const auto e1 = builder.AddEvent(100, CountryId{1});
    const auto e2 = builder.AddEvent(200, CountryId{2});
    const auto e3 = builder.AddEvent(300);
    builder.AddMention(e1, 101, "a.com", 90);
    builder.AddMention(e1, 102, "b.com", 40);
    builder.AddMention(e2, 201, "a.com", 80);
    builder.AddMention(e2, 202, "c.com", 70);
    builder.AddMention(e3, 301, "b.com", 30);
    builder.AddMention(e3, 302, "a.com", 95);
    Xoshiro256 rng(11);
    for (int i = 0; i < filler_events; ++i) {
      const auto at = 400 + 3 * i;
      const auto e = builder.AddEvent(at, CountryId{static_cast<std::uint16_t>(
                                              1 + UniformBelow(rng, 3))});
      for (auto m = UniformBelow(rng, 6); m > 0; --m) {
        builder.AddMention(
            e, at + static_cast<std::int64_t>(UniformBelow(rng, 12)),
            std::string(1, static_cast<char>('a' + UniformBelow(rng, 8))) +
                ".com",
            static_cast<std::uint8_t>(UniformBelow(rng, 101)));
      }
    }
    auto db = builder.Build(dir_->path());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::make_unique<engine::Database>(std::move(*db));
    server_ = std::make_unique<Server>(*db_, delta, options);
    const auto started = server_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
  }

  LineClient Connect() {
    auto client = LineClient::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }

  static JsonValue Parsed(const std::string& line) {
    auto v = JsonValue::Parse(line);
    EXPECT_TRUE(v.ok()) << line;
    return v.ok() ? std::move(*v) : JsonValue();
  }

  static std::string ErrorCodeOf(const JsonValue& response) {
    const auto* error = response.Find("error");
    if (error == nullptr || error->Find("code") == nullptr) return "";
    return error->Find("code")->AsString();
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<engine::Database> db_;
  // Declared before server_: the server holds a raw pointer to the delta
  // store and still dereferences it while draining (the shutdown metrics
  // summary reads fetch_stats()), so the store must be destroyed after
  // the server. A test-local DeltaStore used to die before the fixture's
  // server and the drain summary read freed memory — harmlessly while
  // the stats were plain atomics, aborting once they moved behind a
  // mutex.
  std::unique_ptr<stream::DeltaStore> delta_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServeTest, AnswersAllQueryKindsIdenticallyToRenderer) {
  StartServer(ServerOptions{});
  auto client = Connect();
  for (const QueryKindSpec& spec : QueryKinds()) {
    const std::string kind(spec.name);
    const auto response = client.RoundTrip(
        std::string(R"({"id":"t","query":")") + kind + R"(","top":3})");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    const auto v = Parsed(*response);
    ASSERT_TRUE(v.Find("ok")->AsBool()) << *response;
    EXPECT_EQ(v.Find("id")->AsString(), "t");
    EXPECT_EQ(v.Find("query")->AsString(), kind);

    // The acceptance bar: server text == what the CLI renders.
    Request request;
    request.kind = kind;
    request.top_k = 3;
    const auto rendered = RenderQuery(*db_, request);
    ASSERT_TRUE(rendered.ok());
    EXPECT_EQ(v.Find("text")->AsString(), rendered->text) << kind;
  }
}

TEST_F(ServeTest, FilteredQueryMatchesRenderer) {
  StartServer(ServerOptions{});
  auto client = Connect();
  const std::string line =
      R"({"query":"top-sources","top":2,"min_confidence":60})";
  const auto response = client.RoundTrip(line);
  ASSERT_TRUE(response.ok());
  const auto v = Parsed(*response);
  ASSERT_TRUE(v.Find("ok")->AsBool()) << *response;
  const auto request = ParseRequest(line);
  ASSERT_TRUE(request.ok());
  const auto rendered = RenderQuery(*db_, *request);
  ASSERT_TRUE(rendered.ok());
  EXPECT_EQ(v.Find("text")->AsString(), rendered->text);
  EXPECT_NE(rendered->text.find("restricted"), std::string::npos);
}

TEST_F(ServeTest, SecondRequestIsServedFromCache) {
  StartServer(ServerOptions{});
  auto client = Connect();
  const std::string line = R"({"query":"top-sources","top":2})";
  const auto first = client.RoundTrip(line);
  ASSERT_TRUE(first.ok());
  const auto v1 = Parsed(*first);
  ASSERT_TRUE(v1.Find("ok")->AsBool());
  EXPECT_FALSE(v1.Find("cached")->AsBool(true));

  // Different spelling, same canonical request -> same entry.
  const auto second =
      client.RoundTrip(R"({ "top": 2, "query": "top-sources" })");
  ASSERT_TRUE(second.ok());
  const auto v2 = Parsed(*second);
  ASSERT_TRUE(v2.Find("ok")->AsBool());
  EXPECT_TRUE(v2.Find("cached")->AsBool(false));
  EXPECT_EQ(v1.Find("text")->AsString(), v2.Find("text")->AsString());

  // The metrics request exposes the hit.
  const auto metrics = client.RoundTrip(R"({"query":"metrics"})");
  ASSERT_TRUE(metrics.ok());
  const auto m = Parsed(*metrics);
  ASSERT_NE(m.Find("metrics"), nullptr);
  EXPECT_GE(m.Find("metrics")->Find("cache_hits")->AsInt(), 1);
  EXPECT_GE(m.Find("metrics")->Find("cache_misses")->AsInt(), 1);
}

TEST_F(ServeTest, IngestBumpsEpochAndInvalidatesCache) {
  delta_ = std::make_unique<stream::DeltaStore>(nullptr);
  StartServer(ServerOptions{}, delta_.get());
  auto client = Connect();
  const std::string line = R"({"query":"stats"})";
  ASSERT_TRUE(client.RoundTrip(line).ok());
  const auto cached = client.RoundTrip(line);
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(Parsed(*cached).Find("cached")->AsBool(false));

  // New data lands (directly into the delta store): epoch moves on and
  // the same request recomputes.
  const auto cfg = gen::GeneratorConfig::Tiny();
  const auto dataset = gen::GenerateDataset(cfg);
  std::string events_csv;
  gen::AppendEventRow(events_csv, dataset.world, dataset.events[0]);
  ASSERT_TRUE(delta_->IngestEventsCsv(events_csv).ok());

  const auto recomputed = client.RoundTrip(line);
  ASSERT_TRUE(recomputed.ok());
  EXPECT_FALSE(Parsed(*recomputed).Find("cached")->AsBool(true));
}

TEST_F(ServeTest, RenderRacedByIngestIsCachedUnderRenderEpoch) {
  // Regression for the epoch-capture race: HandleQuery used to key the
  // cache Put with the epoch read at request entry. A render that
  // started before an ingest but executed after it was then cached under
  // the pre-ingest epoch — unreachable at best, and wrong (pre-ingest
  // bytes pinned for the new epoch) once renders consume the delta. The
  // fix re-reads the generation from the snapshot acquired at render
  // time, so the entry lands under the epoch of the data it actually saw.
  delta_ = std::make_unique<stream::DeltaStore>(nullptr);
  StartServer(ServerOptions{}, delta_.get());

  // debug_sleep_ms stalls the worker *before* the snapshot is acquired
  // and is not part of the canonical key, so this request shares its
  // cache slot with the plain "stats" query below.
  std::thread slow([this] {
    auto client = Connect();
    const auto response =
        client.RoundTrip(R"({"query":"stats","debug_sleep_ms":600})");
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(Parsed(*response).Find("ok")->AsBool()) << *response;
  });

  // Land an ingest while the render stalls: the epoch captured at the
  // slow request's entry (0) is now one behind.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const auto cfg = gen::GeneratorConfig::Tiny();
  const auto dataset = gen::GenerateDataset(cfg);
  std::string events_csv;
  gen::AppendEventRow(events_csv, dataset.world, dataset.events[0]);
  ASSERT_TRUE(delta_->IngestEventsCsv(events_csv).ok());
  slow.join();

  // The slow render executed at generation 1, so its result must be
  // servable at the current epoch. Under the entry-epoch bug this lookup
  // missed (the entry sat unreachable under epoch 0).
  auto client = Connect();
  const auto followup = client.RoundTrip(R"({"query":"stats"})");
  ASSERT_TRUE(followup.ok());
  const auto v = Parsed(*followup);
  ASSERT_TRUE(v.Find("ok")->AsBool()) << *followup;
  EXPECT_TRUE(v.Find("cached")->AsBool(false)) << *followup;
}

TEST_F(ServeTest, MalformedAndUnknownRequestsAreStructuredErrors) {
  StartServer(ServerOptions{});
  auto client = Connect();
  const auto bad = client.RoundTrip("this is not json");
  ASSERT_TRUE(bad.ok());
  const auto vb = Parsed(*bad);
  EXPECT_FALSE(vb.Find("ok")->AsBool(true));
  EXPECT_EQ(ErrorCodeOf(vb), "bad_request");

  const auto unknown = client.RoundTrip(R"({"id":"u","query":"bogus"})");
  ASSERT_TRUE(unknown.ok());
  const auto vu = Parsed(*unknown);
  EXPECT_FALSE(vu.Find("ok")->AsBool(true));
  EXPECT_EQ(ErrorCodeOf(vu), "unknown_query");
  EXPECT_EQ(vu.Find("id")->AsString(), "u");

  // The connection survives errors.
  const auto ok = client.RoundTrip(R"({"query":"stats"})");
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(Parsed(*ok).Find("ok")->AsBool());
}

// An ingest naming a missing archive gets one structured error at once,
// without a fetch attempt (the fetcher's retries would otherwise sleep
// under the server's ingest lock).
TEST_F(ServeTest, IngestOfMissingArchiveIsAStructuredErrorWithoutFetching) {
  delta_ = std::make_unique<stream::DeltaStore>(nullptr);
  StartServer(ServerOptions{}, delta_.get());
  const std::string missing = dir_->path() + "/missing";
  const JsonValue v = Parsed(server_->HandleLine(
      R"({"id":"i","query":"ingest","export":")" + missing +
      R"(.export.CSV.zip","mentions":")" + missing +
      R"(.mentions.CSV.zip"})"));
  ASSERT_NE(v.Find("ok"), nullptr);
  EXPECT_FALSE(v.Find("ok")->AsBool());
  EXPECT_EQ(ErrorCodeOf(v), "bad_request");
  EXPECT_NE(v.Find("error")->Find("message")->AsString().find(
                "does not exist"),
            std::string::npos);
  EXPECT_EQ(delta_->fetch_stats().attempts, 0u);
}

/// Request lines covering every verb and field the parser takes: each
/// registry kind whole (top, window, confidence, trace) and as a
/// partition (partial/shard/of), plus cancel, ingest and metrics.
/// `debug_sleep_ms` is left out, so no mutation can stall the run.
std::vector<std::string> RequestCorpus(const std::string& missing_archive) {
  std::vector<std::string> lines;
  for (const QueryKindSpec& spec : QueryKinds()) {
    const std::string kind(spec.name);
    lines.push_back(R"({"id":"w-)" + kind + R"(","query":")" + kind +
                    R"(","top":3,"from":"20150218000000",)"
                    R"("to":"20150301000000","min_confidence":20,)"
                    R"("trace":true})");
    lines.push_back(R"({"id":"p-)" + kind + R"(","query":")" + kind +
                    R"(","top":3,"partial":true,"shard":1,"of":2})");
  }
  lines.push_back(R"({"id":"c","query":"cancel"})");
  lines.push_back(R"({"id":"i","query":"ingest","export":")" +
                  missing_archive + R"(.export.CSV.zip","mentions":")" +
                  missing_archive + R"(.mentions.CSV.zip"})");
  lines.push_back(R"({"id":"m","query":"metrics"})");
  return lines;
}

/// Deterministic request fuzzing: every single JSON edit of every corpus
/// line, plus seeded pairs of edits and seeded truncations, goes through
/// ParseRequest and Server::HandleLine. Each reply must be one line
/// holding one JSON object: `"ok":true`, or `"ok":false` with a
/// structured error code. The sanitizer builds run this too.
TEST_F(ServeTest, RequestMutationsAlwaysGetOneStructuredReply) {
  delta_ = std::make_unique<stream::DeltaStore>(nullptr);
  StartServer(ServerOptions{}, delta_.get());
  const std::set<std::string> error_codes = {
      "bad_request", "unknown_query", "overloaded", "timeout", "cancelled"};
  std::size_t ok = 0;
  std::size_t errors = 0;
  const auto send = [&](const std::string& line) {
    (void)ParseRequest(line);
    const std::string reply = server_->HandleLine(line);
    ASSERT_FALSE(reply.empty()) << line;
    ASSERT_EQ(reply.find('\n'), reply.size() - 1) << line << "\n" << reply;
    const auto v = JsonValue::Parse(reply);
    ASSERT_TRUE(v.ok() && v->is_object()) << line << "\n" << reply;
    ASSERT_NE(v->Find("ok"), nullptr) << line << "\n" << reply;
    if (v->Find("ok")->AsBool(false)) {
      ++ok;
      return;
    }
    ++errors;
    EXPECT_EQ(error_codes.count(ErrorCodeOf(*v)), 1u) << line << "\n" << reply;
  };

  const auto corpus = RequestCorpus(dir_->path() + "/missing");
  // The unmutated whole-kind lines are all answerable.
  for (std::size_t i = 0; i + 3 < corpus.size(); i += 2) {
    EXPECT_TRUE(Parsed(server_->HandleLine(corpus[i])).Find("ok")->AsBool())
        << corpus[i];
  }

  constexpr int kPairsPerLine = 16;
  constexpr int kTruncationsPerLine = 4;
  Xoshiro256 rng(18);
  for (const std::string& line : corpus) {
    const std::vector<JsonEdit> edits = JsonMutations(line);
    ASSERT_FALSE(edits.empty()) << line;
    for (const JsonEdit& e : edits) {
      std::string text = line;
      text.replace(e.at, e.len, e.with);
      send(text);
    }
    for (int k = 0; k < kPairsPerLine; ++k) {
      const JsonEdit* a = &edits[rng() % edits.size()];
      const JsonEdit* b = &edits[rng() % edits.size()];
      if (a->at < b->at) std::swap(a, b);
      if (a == b || b->at + b->len > a->at) continue;  // overlapping
      std::string text = line;
      text.replace(a->at, a->len, a->with);  // later offset first
      text.replace(b->at, b->len, b->with);
      send(text);
    }
    for (int k = 0; k < kTruncationsPerLine; ++k) {
      send(line.substr(0, rng() % line.size()));
    }
  }
  EXPECT_GT(ok, 0u);
  EXPECT_GT(errors, 0u);
}

TEST_F(ServeTest, RequestPastDeadlineReturnsTimeout) {
  StartServer(ServerOptions{});
  auto client = Connect();
  const auto response = client.RoundTrip(
      R"({"query":"stats","top":9,"timeout_ms":1,"debug_sleep_ms":100})");
  ASSERT_TRUE(response.ok());
  const auto v = Parsed(*response);
  EXPECT_FALSE(v.Find("ok")->AsBool(true));
  EXPECT_EQ(ErrorCodeOf(v), "timeout");
}

TEST_F(ServeTest, MidScanDeadlineAbortsWithinSliceBudget) {
  StartServer(ServerOptions{});
  auto client = Connect();
  // A 100ms budget against a 5s stall: the worker arms the token at
  // dequeue and the (slice-polling) execution path must observe the
  // expiry and answer within roughly deadline + one 100ms poll slice —
  // far below the 5s a deadline-blind server would burn.
  const auto start = std::chrono::steady_clock::now();
  const auto response = client.RoundTrip(
      R"({"query":"stats","timeout_ms":100,"debug_sleep_ms":5000})");
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  ASSERT_TRUE(response.ok());
  const auto v = Parsed(*response);
  EXPECT_FALSE(v.Find("ok")->AsBool(true));
  EXPECT_EQ(ErrorCodeOf(v), "timeout");
  EXPECT_LT(wall_ms, 2000.0) << "mid-scan abort took " << wall_ms << "ms";

  const auto metrics = client.RoundTrip(R"({"query":"metrics"})");
  ASSERT_TRUE(metrics.ok());
  const auto m = Parsed(*metrics);
  EXPECT_GE(m.Find("metrics")->Find("cancelled_deadline")->AsInt(), 1);
}

TEST_F(ServeTest, BatchQueryBesideAnInteractiveOneRendersTheSameBytes) {
  ServerOptions options;
  options.scheduler.workers = 2;
  options.cache_entries = 0;
  StartServer(options, nullptr, /*filler_events=*/600);
  // Several morsels per loop, so a batch loop that spreads and one that
  // yields the pool really run differently.
  parallel::SetMorselRows(64);
  const auto batch_lines = [] {
    std::vector<std::string> lines;
    for (const QueryKindSpec& spec : QueryKinds()) {
      if (spec.lane != Lane::kBatch) continue;
      lines.push_back(std::string(R"({"query":")") +
                      std::string(spec.name) + R"(","top":5})");
    }
    return lines;
  }();
  ASSERT_FALSE(batch_lines.empty());
  std::vector<std::string> alone;
  for (const std::string& line : batch_lines) {
    ASSERT_EQ(server_->interactive_in_progress(), 0u);
    const auto v = Parsed(server_->HandleLine(line));
    ASSERT_TRUE(v.Find("ok")->AsBool()) << line;
    alone.push_back(v.Find("text")->AsString());
  }

  // An interactive request held in progress on one scheduler worker.
  std::thread holder([this] {
    server_->HandleLine(
        R"({"id":"hold","query":"top-sources","debug_sleep_ms":30000})");
  });
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server_->interactive_in_progress() == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server_->interactive_in_progress(), 1u);
  for (std::size_t i = 0; i < batch_lines.size(); ++i) {
    const auto v = Parsed(server_->HandleLine(batch_lines[i]));
    ASSERT_TRUE(v.Find("ok")->AsBool()) << batch_lines[i];
    EXPECT_EQ(v.Find("text")->AsString(), alone[i]) << batch_lines[i];
  }
  EXPECT_EQ(server_->interactive_in_progress(), 1u);
  // The count rises at entry, a moment before the id is cancellable.
  while (!Parsed(server_->HandleLine(R"({"id":"hold","query":"cancel"})"))
              .Find("cancelled")
              ->AsBool(false) &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  holder.join();
  EXPECT_EQ(server_->interactive_in_progress(), 0u);
  parallel::SetMorselRows(0);
}

TEST_F(ServeTest, CancelVerbAbortsInFlightRequest) {
  ServerOptions options;
  options.scheduler.workers = 1;
  options.cache_entries = 0;
  StartServer(options);
  auto victim = Connect();
  auto controller = Connect();
  ASSERT_TRUE(
      victim.Send(R"({"id":"victim","query":"stats","debug_sleep_ms":5000})")
          .ok());
  // Let the worker dequeue it and enter the stall.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const auto cancel =
      controller.RoundTrip(R"({"id":"victim","query":"cancel"})");
  ASSERT_TRUE(cancel.ok());
  const auto cv = Parsed(*cancel);
  ASSERT_TRUE(cv.Find("ok")->AsBool()) << *cancel;
  EXPECT_TRUE(cv.Find("cancelled")->AsBool(false));

  const auto aborted = victim.ReadLine();
  ASSERT_TRUE(aborted.ok());
  const auto av = Parsed(*aborted);
  EXPECT_FALSE(av.Find("ok")->AsBool(true));
  EXPECT_EQ(ErrorCodeOf(av), "cancelled");

  // Cancelling an id that is not in flight is an idempotent no-op.
  const auto noop = controller.RoundTrip(R"({"id":"ghost","query":"cancel"})");
  ASSERT_TRUE(noop.ok());
  EXPECT_FALSE(Parsed(*noop).Find("cancelled")->AsBool(true));

  const auto metrics = controller.RoundTrip(R"({"query":"metrics"})");
  ASSERT_TRUE(metrics.ok());
  const auto m = Parsed(*metrics);
  EXPECT_GE(m.Find("metrics")->Find("cancelled_router")->AsInt(), 1);
}

TEST_F(ServeTest, CancelVerbRequiresAnId) {
  StartServer(ServerOptions{});
  auto client = Connect();
  const auto response = client.RoundTrip(R"({"query":"cancel"})");
  ASSERT_TRUE(response.ok());
  const auto v = Parsed(*response);
  EXPECT_FALSE(v.Find("ok")->AsBool(true));
  EXPECT_EQ(ErrorCodeOf(v), "bad_request");
}

TEST_F(ServeTest, EnvelopeEchoesClampedDeadline) {
  ServerOptions options;
  options.max_timeout_ms = 500;
  StartServer(options);
  auto client = Connect();
  // Asking for far more than the ceiling: the server clamps and says so.
  const auto response =
      client.RoundTrip(R"({"query":"stats","timeout_ms":100000})");
  ASSERT_TRUE(response.ok());
  const auto v = Parsed(*response);
  ASSERT_TRUE(v.Find("ok")->AsBool()) << *response;
  ASSERT_NE(v.Find("deadline_ms"), nullptr);
  EXPECT_EQ(v.Find("deadline_ms")->AsInt(), 500);
}

TEST_F(ServeTest, LateRenderIsCachedAndSalvagesRetry) {
  // A render that passes RenderQuery's final token check can still miss
  // its deadline before the worker answers: a filtered render logs its
  // "[filter selects …]" note at debug level first, and that write waits
  // while stderr is locked. Holding the stream lock past the deadline
  // makes the complete render late on every run; the late-tagged cache
  // entry then answers the retry.
  StartServer(ServerOptions{});
  const LogLevel saved_level = GetLogLevel();
  SetLogLevel(LogLevel::kDebug);
  auto client = Connect();
  const std::string line =
      R"({"query":"top-sources","top":2,"min_confidence":50,)"
      R"("timeout_ms":300})";
  flockfile(stderr);
  const auto sent = client.Send(line);
  std::this_thread::sleep_for(std::chrono::milliseconds(800));
  funlockfile(stderr);
  SetLogLevel(saved_level);
  ASSERT_TRUE(sent.ok());
  const auto first = client.ReadLine();
  ASSERT_TRUE(first.ok());
  const auto v1 = Parsed(*first);
  EXPECT_FALSE(v1.Find("ok")->AsBool(true)) << *first;
  EXPECT_EQ(ErrorCodeOf(v1), "timeout");
  EXPECT_NE(first->find("deadline expired during execution\""),
            std::string::npos)
      << *first;

  // Same canonical request again: served from the late-tagged entry.
  const auto second = client.RoundTrip(line);
  ASSERT_TRUE(second.ok());
  const auto v2 = Parsed(*second);
  ASSERT_TRUE(v2.Find("ok")->AsBool()) << *second;
  EXPECT_TRUE(v2.Find("cached")->AsBool(false));

  const auto metrics = client.RoundTrip(R"({"query":"metrics"})");
  ASSERT_TRUE(metrics.ok());
  const auto m = Parsed(*metrics);
  EXPECT_EQ(m.Find("metrics")->Find("timeouts_salvaged_by_cache")->AsInt(), 1);
}

TEST_F(ServeTest, QueueOverflowReturnsOverloaded) {
  ServerOptions options;
  options.scheduler.workers = 1;
  options.scheduler.queue_capacity = 1;
  options.cache_entries = 0;  // every request must reach the queue
  StartServer(options);

  // One request occupies the single worker, one fills the queue; the
  // third must be rejected up front.
  auto busy = Connect();
  auto queued = Connect();
  auto rejected = Connect();
  ASSERT_TRUE(
      busy.Send(R"({"id":"busy","query":"stats","debug_sleep_ms":400})")
          .ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(
      queued.Send(R"({"id":"queued","query":"stats","debug_sleep_ms":1})")
          .ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto response =
      rejected.RoundTrip(R"({"id":"rejected","query":"stats"})");
  ASSERT_TRUE(response.ok());
  const auto v = Parsed(*response);
  EXPECT_FALSE(v.Find("ok")->AsBool(true));
  EXPECT_EQ(ErrorCodeOf(v), "overloaded");
  // Shed work carries a backoff hint derived from queue depth and the
  // observed p50 execution time.
  ASSERT_NE(v.Find("error")->Find("retry_after_ms"), nullptr);
  EXPECT_GE(v.Find("error")->Find("retry_after_ms")->AsInt(), 1);

  const auto busy_response = busy.ReadLine();
  ASSERT_TRUE(busy_response.ok());
  EXPECT_TRUE(Parsed(*busy_response).Find("ok")->AsBool());
  const auto queued_response = queued.ReadLine();
  ASSERT_TRUE(queued_response.ok());
  EXPECT_TRUE(Parsed(*queued_response).Find("ok")->AsBool());
}

TEST_F(ServeTest, StopDrainsInFlightRequests) {
  StartServer(ServerOptions{});
  auto client = Connect();
  ASSERT_TRUE(
      client.Send(R"({"query":"stats","top":8,"debug_sleep_ms":200})").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread stopper([this] { server_->Stop(); });
  const auto response = client.ReadLine();
  stopper.join();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(Parsed(*response).Find("ok")->AsBool()) << *response;
  // After the drain, new requests are refused.
  EXPECT_NE(server_->HandleLine(R"({"query":"stats"})")
                .find("shutting_down"),
            std::string::npos);
}

TEST_F(ServeTest, PingAndConcurrentClients) {
  ServerOptions options;
  options.scheduler.workers = 4;
  StartServer(options);
  const auto ping = Connect().RoundTrip(R"({"query":"ping"})");
  ASSERT_TRUE(ping.ok());
  EXPECT_TRUE(Parsed(*ping).Find("pong")->AsBool());

  // Hammer from several threads; every response must be well-formed and ok.
  std::vector<std::thread> threads;
  std::vector<int> failures(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([this, t, &failures] {
      auto client = Connect();
      for (int i = 0; i < 20; ++i) {
        const auto response = client.RoundTrip(
            StrFormat(R"({"query":"top-sources","top":%d})", 1 + (i % 3)));
        if (!response.ok()) {
          ++failures[t];
          continue;
        }
        const auto v = JsonValue::Parse(*response);
        if (!v.ok() || !v->Find("ok")->AsBool()) ++failures[t];
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(failures[t], 0) << "client " << t;
}

/// Eight pipelined pings with ids p0..p7.
std::vector<std::string> PingBurst() {
  std::vector<std::string> lines;
  for (int i = 0; i < 8; ++i) {
    lines.push_back(StrFormat(R"({"id":"p%d","query":"ping"})", i));
  }
  return lines;
}

/// Replies to a pipelined burst leave as each completes. Eight pings in
/// one write() from an ordinary socket come back far inside the peer's
/// ~40 ms delayed-ACK timer; a server socket without TCP_NODELAY holds
/// every reply after the first until that timer fires.
TEST_F(ServeTest, PipelinedBurstRepliesWithoutDelayedAckStall) {
  StartServer(ServerOptions{});
  auto socket = RawLineSocket::Connect(server_->port());
  ASSERT_TRUE(socket.ok()) << socket.status().ToString();
  const auto lines = PingBurst();
  std::vector<double> burst_ms;
  for (int burst = 0; burst < 5; ++burst) {
    double ms = 0;
    const auto replies = socket->Burst(lines, ms);
    ASSERT_TRUE(replies.ok()) << replies.status().ToString();
    for (std::size_t i = 0; i < lines.size(); ++i) {
      EXPECT_EQ(Parsed((*replies)[i]).Find("id")->AsString(),
                "p" + std::to_string(i));  // one reply per line, in order
    }
    burst_ms.push_back(ms);
  }
  EXPECT_LT(Median(burst_ms), 20.0);
}

/// The same burst sent as eight separate LineClient::Send calls: the
/// client's own socket must not hold the later lines back either.
TEST_F(ServeTest, LineClientPipelinedSendsDoNotStall) {
  StartServer(ServerOptions{});
  auto client = Connect();
  const auto lines = PingBurst();
  std::vector<double> burst_ms;
  for (int burst = 0; burst < 5; ++burst) {
    const auto t0 = std::chrono::steady_clock::now();
    for (const std::string& line : lines) ASSERT_TRUE(client.Send(line).ok());
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const auto reply = client.ReadLine();
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      EXPECT_EQ(Parsed(*reply).Find("id")->AsString(),
                "p" + std::to_string(i));
    }
    burst_ms.push_back(std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
  }
  EXPECT_LT(Median(burst_ms), 20.0);
}

/// Lines of /proc/self/maps; 0 where it cannot be read. A thread stack
/// that is still mapped adds two: the stack and its guard page.
std::size_t MappingCount() {
  std::ifstream maps("/proc/self/maps");
  std::size_t lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

/// A connection's thread is joined once its peer hangs up, not at Stop.
/// An unjoined thread keeps its stack mapped, so a shard that a router
/// probes every 2 s used to gain one stack per probe until it could no
/// longer start threads. Counting mappings rather than VmSize keeps the
/// check meaningful under ASan and TSan, whose shadow memory swamps
/// VmSize.
TEST(LineServerTest, ClosedConnectionThreadsAreJoined) {
  std::atomic<std::uint64_t> opened{0};
  std::atomic<std::uint64_t> bad_requests{0};
  LineServer server;
  const Status started = server.Start(
      "127.0.0.1", 0, 1 << 16,
      [](const std::string& line, int) { return line + "\n"; }, opened,
      bad_requests);
  ASSERT_TRUE(started.ok()) << started.ToString();
  const auto connect_and_close = [&server](int connections) {
    for (int i = 0; i < connections; ++i) {
      auto client = LineClient::Connect("127.0.0.1", server.port());
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      const auto reply = client->RoundTrip("probe");
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      EXPECT_EQ(*reply, "probe");
    }
  };
  // Warm-up: brings the stack cache and the allocators to steady state.
  connect_and_close(16);
  const std::size_t before = MappingCount();
  if (before == 0) GTEST_SKIP() << "/proc/self/maps is not readable";

  constexpr int kConnections = 256;
  connect_and_close(kConnections);
  // Leaked stacks would add 2 * kConnections mappings; allow a quarter
  // of one per connection for allocator noise, and give the server up to
  // 2 s to notice the last hang-ups.
  constexpr std::size_t kSlack = kConnections / 4;
  std::size_t after = MappingCount();
  for (int i = 0; i < 200 && after >= before + kSlack; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    after = MappingCount();
  }
  EXPECT_LT(after, before + kSlack)
      << "mappings grew from " << before << " to " << after << " over "
      << kConnections << " closed connections";
  server.Stop();
  EXPECT_EQ(opened.load(), 16u + kConnections);
}

// ---------------------------------------------------------- prometheus --

TEST(PromTest, EscapesLabelValues) {
  EXPECT_EQ(PromEscapeLabel("plain"), "plain");
  EXPECT_EQ(PromEscapeLabel("a\"b"), "a\\\"b");
  EXPECT_EQ(PromEscapeLabel("a\\b"), "a\\\\b");
  EXPECT_EQ(PromEscapeLabel("a\nb"), "a\\nb");
  EXPECT_EQ(PromEscapeLabel("q\"\\\n"), "q\\\"\\\\\\n");
}

/// Value of the first exposition line whose name (with labels) is exactly
/// `key`; -1 if no such line exists.
double PromValue(const std::string& text, const std::string& key) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    if (eol - pos > key.size() + 1 &&
        text.compare(pos, key.size(), key) == 0 &&
        text[pos + key.size()] == ' ') {
      return std::strtod(text.c_str() + pos + key.size() + 1, nullptr);
    }
    pos = eol + 1;
  }
  return -1.0;
}

/// Unwraps the exposition text from a `metrics_prom` response line.
std::string ScrapeProm(Server& server) {
  const auto v = JsonValue::Parse(server.HandleLine(R"({"query":"metrics_prom"})"));
  EXPECT_TRUE(v.ok());
  EXPECT_TRUE(v->Find("ok")->AsBool());
  return v->Find("text")->AsString();
}

TEST_F(ServeTest, PrometheusExpositionGolden) {
  StartServer(ServerOptions{});
  // Drive traffic: two identical queries (miss then hit) and one error.
  EXPECT_NE(server_->HandleLine(R"({"query":"stats"})").find("\"ok\":true"),
            std::string::npos);
  EXPECT_NE(server_->HandleLine(R"({"query":"stats"})").find("\"ok\":true"),
            std::string::npos);
  (void)server_->HandleLine(R"({"query":"bogus"})");

  const std::string scrape1 = ScrapeProm(*server_);

  // Every non-comment line is `name[{labels}] value` with a float value;
  // every metric is preceded by a `# TYPE` declaration for its family.
  std::set<std::string> declared;
  std::size_t pos = 0;
  int metric_lines = 0;
  while (pos < scrape1.size()) {
    std::size_t eol = scrape1.find('\n', pos);
    if (eol == std::string::npos) eol = scrape1.size();
    const std::string line = scrape1.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      declared.insert(line.substr(7, line.find(' ', 7) - 7));
      continue;
    }
    ++metric_lines;
    const std::size_t name_end = line.find_first_of("{ ");
    ASSERT_NE(name_end, std::string::npos) << line;
    std::string family = line.substr(0, name_end);
    for (const std::string_view suffix :
         {"_bucket", "_sum", "_count"}) {
      if (family.size() > suffix.size() &&
          family.compare(family.size() - suffix.size(), suffix.size(),
                         suffix) == 0 &&
          declared.count(family.substr(0, family.size() - suffix.size()))) {
        family = family.substr(0, family.size() - suffix.size());
        break;
      }
    }
    EXPECT_TRUE(declared.count(family)) << "undeclared family: " << line;
    const std::size_t space = line.rfind(' ');
    char* end = nullptr;
    const double value = std::strtod(line.c_str() + space + 1, &end);
    EXPECT_EQ(*end, '\0') << line;
    EXPECT_FALSE(std::isnan(value)) << line;
  }
  EXPECT_GT(metric_lines, 20);

  // Spot-check counters against the traffic we generated.
  EXPECT_GE(PromValue(scrape1, "gdelt_requests_total"), 3.0);
  EXPECT_GE(PromValue(scrape1, "gdelt_cache_hits_total"), 1.0);
  EXPECT_GE(PromValue(scrape1, "gdelt_cache_misses_total"), 1.0);
  EXPECT_GE(PromValue(scrape1, "gdelt_unknown_queries_total"), 1.0);
  EXPECT_GE(PromValue(scrape1, "gdelt_workers"), 1.0);

  // Histogram: cumulative `le` buckets, +Inf bucket == _count, and the
  // bucket counts never decrease as `le` grows.
  const std::string bucket_prefix =
      "gdelt_request_latency_seconds_bucket{kind=\"stats\",le=\"";
  double last_le = -1.0;
  double last_count = -1.0;
  double inf_count = -1.0;
  pos = 0;
  while ((pos = scrape1.find(bucket_prefix, pos)) != std::string::npos) {
    const std::size_t le_begin = pos + bucket_prefix.size();
    const std::size_t le_end = scrape1.find('"', le_begin);
    const std::string le = scrape1.substr(le_begin, le_end - le_begin);
    const double count =
        std::strtod(scrape1.c_str() + scrape1.find(' ', le_end) + 1, nullptr);
    if (le == "+Inf") {
      inf_count = count;
    } else {
      const double le_value = std::strtod(le.c_str(), nullptr);
      EXPECT_GT(le_value, last_le) << "le not increasing";
      last_le = le_value;
    }
    EXPECT_GE(count, last_count) << "bucket counts not cumulative at le=" << le;
    last_count = count;
    pos = le_end;
  }
  ASSERT_GE(inf_count, 0.0) << "missing +Inf bucket";
  EXPECT_EQ(inf_count, PromValue(scrape1, "gdelt_request_latency_seconds_count"
                                          "{kind=\"stats\"}"));
  EXPECT_EQ(inf_count, 2.0);  // the two stats queries

  // Counters are monotonic across scrapes.
  EXPECT_NE(server_->HandleLine(R"({"query":"top-sources","top":3})")
                .find("\"ok\":true"),
            std::string::npos);
  const std::string scrape2 = ScrapeProm(*server_);
  for (const char* counter :
       {"gdelt_requests_total", "gdelt_responses_ok_total",
        "gdelt_cache_misses_total", "gdelt_unknown_queries_total"}) {
    EXPECT_GE(PromValue(scrape2, counter), PromValue(scrape1, counter))
        << counter;
  }
  EXPECT_GT(PromValue(scrape2, "gdelt_requests_total"),
            PromValue(scrape1, "gdelt_requests_total"));
}

// --------------------------------------------------------------- trace --

TEST_F(ServeTest, TracedRequestReturnsStageBreakdownSummingToWall) {
  StartServer(ServerOptions{});
  auto client = Connect();
  const auto response = client.RoundTrip(
      R"({"query":"stats","debug_sleep_ms":150,"trace":true})");
  ASSERT_TRUE(response.ok());
  const auto v = Parsed(*response);
  ASSERT_TRUE(v.Find("ok")->AsBool()) << *response;
  const JsonValue* trace_obj = v.Find("trace");
  ASSERT_NE(trace_obj, nullptr) << *response;
  const JsonValue* stages = trace_obj->Find("stages");
  ASSERT_NE(stages, nullptr);

  std::vector<std::string> names;
  double stage_sum_ms = 0;
  for (const auto& stage : stages->elements()) {
    names.push_back(stage.Find("name")->AsString());
    const double ms = stage.Find("ms")->AsNumber(-1);
    EXPECT_GE(ms, 0.0) << names.back();
    stage_sum_ms += ms;
  }
  const std::vector<std::string> expected = {"parse", "cache_lookup",
                                             "queue_wait", "execute",
                                             "cache_put"};
  EXPECT_EQ(names, expected);

  // Acceptance criterion: the stages decompose the reported wall time —
  // their sum lands within 10% of wall_ms (debug_sleep makes it long
  // enough that scheduling noise cannot dominate).
  const double wall_ms = v.Find("wall_ms")->AsNumber();
  EXPECT_GT(wall_ms, 100.0);
  EXPECT_NEAR(stage_sum_ms, wall_ms, wall_ms * 0.10);

  // The span list carries the in-query tree: serve.execute at depth 0.
  const JsonValue* spans = trace_obj->Find("spans");
  ASSERT_NE(spans, nullptr) << *response;
  bool saw_execute = false;
  for (const auto& span : spans->elements()) {
    if (span.Find("name")->AsString() == "serve.execute") {
      saw_execute = true;
      EXPECT_EQ(span.Find("depth")->AsInt(-1), 0);
    }
  }
  EXPECT_TRUE(saw_execute) << *response;

  // An untraced request carries no trace object.
  const auto plain = client.RoundTrip(R"({"query":"top-events","top":2})");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(Parsed(*plain).Find("trace"), nullptr);
}

TEST_F(ServeTest, TracedCacheHitReportsLookupStagesOnly) {
  StartServer(ServerOptions{});
  auto client = Connect();
  ASSERT_TRUE(client.RoundTrip(R"({"query":"quarterly"})").ok());
  const auto response =
      client.RoundTrip(R"({"query":"quarterly","trace":true})");
  ASSERT_TRUE(response.ok());
  const auto v = Parsed(*response);
  ASSERT_TRUE(v.Find("ok")->AsBool()) << *response;
  EXPECT_TRUE(v.Find("cached")->AsBool());
  const JsonValue* trace_obj = v.Find("trace");
  ASSERT_NE(trace_obj, nullptr) << *response;
  std::vector<std::string> names;
  for (const auto& stage : trace_obj->Find("stages")->elements()) {
    names.push_back(stage.Find("name")->AsString());
  }
  EXPECT_EQ(names, (std::vector<std::string>{"parse", "cache_lookup"}));
}

TEST_F(ServeTest, GlobalTracingCapturesNestedOrderedSpans) {
  trace::Reset();
  trace::SetEnabled(true);
  StartServer(ServerOptions{});
  auto client = Connect();
  ASSERT_TRUE(client.RoundTrip(R"({"query":"cross-report"})").ok());
  trace::SetEnabled(false);

  const auto spans = trace::RingSnapshot();
  std::ptrdiff_t execute_idx = -1;
  std::ptrdiff_t kernel_idx = -1;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "serve.execute") {
      execute_idx = static_cast<std::ptrdiff_t>(i);
    }
    if (spans[i].name == "engine.cross_report") {
      kernel_idx = static_cast<std::ptrdiff_t>(i);
    }
  }
  ASSERT_GE(execute_idx, 0) << "serve.execute span missing";
  ASSERT_GE(kernel_idx, 0) << "engine.cross_report span missing";
  const auto& execute = spans[static_cast<std::size_t>(execute_idx)];
  const auto& kernel = spans[static_cast<std::size_t>(kernel_idx)];
  // Children finish (and are recorded) before their parent...
  EXPECT_LT(kernel_idx, execute_idx);
  // ...run on the same worker thread, nested one level down...
  EXPECT_EQ(kernel.tid, execute.tid);
  EXPECT_EQ(execute.depth, 0);
  EXPECT_GE(kernel.depth, 1);
  // ...and sit inside the parent's time window.
  EXPECT_GE(kernel.start_us, execute.start_us);
  EXPECT_LE(kernel.start_us + kernel.dur_us,
            execute.start_us + execute.dur_us + 1);
  // The cross-thread queue-wait stage is mirrored into the ring too.
  bool saw_queue_wait = false;
  for (const auto& span : spans) {
    if (span.name == "serve.queue_wait") saw_queue_wait = true;
  }
  EXPECT_TRUE(saw_queue_wait);

  // Span aggregates surface in the Prometheus exposition.
  const std::string scrape = ScrapeProm(*server_);
  EXPECT_GE(PromValue(scrape,
                      "gdelt_trace_span_total{name=\"serve.execute\"}"),
            1.0);
  EXPECT_GE(PromValue(scrape,
                      "gdelt_trace_span_total{name=\"engine.cross_report\"}"),
            1.0);
  trace::Reset();
}

}  // namespace
}  // namespace gdelt::serve
