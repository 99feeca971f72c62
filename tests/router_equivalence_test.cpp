// End-to-end router tests over real loopback sockets: a topology of
// gdelt_serve backends behind a Router must answer every supported query
// kind with `"text"` byte-identical to a single-node server (scattered
// kinds via partial-aggregate merge, order-sensitive kinds via relay),
// degrade structurally when a shard dies, and reject what it cannot do.
// Plus topology parsing and the LineClient connect retry policy against
// a dropped listener.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "engine/database.hpp"
#include "router/pool.hpp"
#include "router/router.hpp"
#include "router/topology.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/partial.hpp"
#include "serve/protocol.hpp"
#include "serve/render.hpp"
#include "serve/server.hpp"
#include "test_util.hpp"
#include "util/strings.hpp"

namespace gdelt::router {
namespace {

using ::gdelt::testing::Median;
using ::gdelt::testing::RawLineSocket;
using ::gdelt::testing::TempDir;
using ::gdelt::testing::TestDbBuilder;

/// Binds an ephemeral listener, records its port, and closes it — a
/// port that connect() will refuse (until something else binds it).
int DroppedListenerPort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const int port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

// ------------------------------------------------------------ topology --

TEST(TopologyTest, ParsesShardsAndReplicas) {
  auto t = ParseTopology("127.0.0.1:7001,127.0.0.1:7002;localhost:7003");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->num_shards(), 2u);
  ASSERT_EQ(t->shards[0].size(), 2u);
  EXPECT_EQ(t->shards[0][0].host, "127.0.0.1");
  EXPECT_EQ(t->shards[0][0].port, 7001);
  EXPECT_EQ(t->shards[0][1].port, 7002);
  ASSERT_EQ(t->shards[1].size(), 1u);
  EXPECT_EQ(t->shards[1][0].host, "localhost");
  EXPECT_EQ(t->shards[1][0].port, 7003);
}

TEST(TopologyTest, TrimsWhitespace) {
  auto t = ParseTopology(" 127.0.0.1:1 , 127.0.0.1:2 ; 127.0.0.1:3 ");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->num_shards(), 2u);
  EXPECT_EQ(t->shards[0][1].port, 2);
}

TEST(TopologyTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(ParseTopology("").ok());
  EXPECT_FALSE(ParseTopology("127.0.0.1").ok());          // no port
  EXPECT_FALSE(ParseTopology("127.0.0.1:0").ok());        // port 0
  EXPECT_FALSE(ParseTopology("127.0.0.1:70000").ok());    // out of range
  EXPECT_FALSE(ParseTopology("127.0.0.1:7001;").ok());    // empty shard
  EXPECT_FALSE(ParseTopology(";127.0.0.1:7001").ok());
  EXPECT_FALSE(ParseTopology("127.0.0.1:7001,,127.0.0.1:2").ok());
  EXPECT_FALSE(ParseTopology(":7001").ok());              // empty host
}

// -------------------------------------------------- client retry policy --

TEST(ClientRetryTest, BoundedRetryAgainstDroppedListener) {
  const int port = DroppedListenerPort();
  serve::ConnectOptions options;
  options.connect_timeout_ms = 200;
  options.max_attempts = 3;
  options.backoff_initial_ms = 10;
  options.backoff_multiplier = 2.0;
  options.backoff_max_ms = 40;
  options.jitter_seed = 7;
  std::vector<std::uint64_t> sleeps;
  options.sleep_fn = [&sleeps](std::uint64_t ms) { sleeps.push_back(ms); };

  auto client = serve::LineClient::Connect("127.0.0.1", port, options);
  EXPECT_FALSE(client.ok());
  // One backoff sleep between each of the 3 attempts.
  ASSERT_EQ(sleeps.size(), 2u);
  // Jitter keeps each delay within [capped/2, capped] of the
  // exponential schedule (10ms then 20ms).
  EXPECT_GE(sleeps[0], 5u);
  EXPECT_LE(sleeps[0], 10u);
  EXPECT_GE(sleeps[1], 10u);
  EXPECT_LE(sleeps[1], 20u);

  // Determinism: the same seed yields the same schedule.
  std::vector<std::uint64_t> again;
  options.sleep_fn = [&again](std::uint64_t ms) { again.push_back(ms); };
  EXPECT_FALSE(serve::LineClient::Connect("127.0.0.1", port, options).ok());
  EXPECT_EQ(sleeps, again);
}

TEST(ClientRetryTest, SingleAttemptByDefault) {
  const int port = DroppedListenerPort();
  serve::ConnectOptions options;
  options.connect_timeout_ms = 200;
  std::size_t naps = 0;
  options.sleep_fn = [&naps](std::uint64_t) { ++naps; };
  EXPECT_FALSE(serve::LineClient::Connect("127.0.0.1", port, options).ok());
  EXPECT_EQ(naps, 0u);
}

// --------------------------------------------------------------- router --

/// Two real backend servers over one hand-built database, and a router
/// in front. Logical shard counts beyond 2 reuse the same backends
/// (partition correctness does not care which process owns a range).
class RouterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("router");
    TestDbBuilder builder;
    std::vector<std::uint64_t> events;
    for (int i = 0; i < 14; ++i) {
      const CountryId country =
          i % 4 == 3 ? kNoCountry : static_cast<CountryId>(1 + i % 3);
      events.push_back(builder.AddEvent(100 * (i + 1), country));
    }
    const char* sources[] = {"a.com", "b.com", "c.com",
                             "d.com", "e.com", "f.com"};
    for (std::size_t e = 0; e < events.size(); ++e) {
      for (std::size_t s = 0; s < 3; ++s) {
        builder.AddMention(events[e],
                           static_cast<std::int64_t>(100 * (e + 1) + 1 + s),
                           sources[(e + s) % 6],
                           static_cast<std::uint8_t>(30 + 10 * s));
      }
      if (e % 2 == 0) {
        builder.AddMention(events[e],
                           static_cast<std::int64_t>(100 * (e + 1) + 40),
                           sources[e % 6], 90);
      }
    }
    auto db = builder.Build(dir_->path());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::make_unique<engine::Database>(std::move(*db));
  }

  void TearDown() override {
    if (router_) router_->Stop();
    for (auto& backend : backends_) backend->Stop();
  }

  void StartBackends(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      serve::ServerOptions options;
      options.scheduler.workers = 2;
      auto backend =
          std::make_unique<serve::Server>(*db_, nullptr, options);
      const auto started = backend->Start();
      ASSERT_TRUE(started.ok()) << started.ToString();
      backends_.push_back(std::move(backend));
    }
  }

  /// Starts the router over `shards` logical shards, assigning backend
  /// round-robin (shard i -> backend i % backends).
  void StartRouter(std::size_t shards, RouterOptions options = {}) {
    for (std::size_t i = 0; i < shards; ++i) {
      const auto& backend = backends_[i % backends_.size()];
      options.topology.shards.push_back(
          {Endpoint{"127.0.0.1", backend->port()}});
    }
    if (options.connect.connect_timeout_ms == 5'000) {
      options.connect.connect_timeout_ms = 2'000;
    }
    router_ = std::make_unique<Router>(options);
    const auto started = router_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
  }

  serve::LineClient ConnectRouter() {
    auto client = serve::LineClient::Connect("127.0.0.1", router_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }

  static serve::JsonValue Parsed(const std::string& line) {
    auto v = serve::JsonValue::Parse(line);
    EXPECT_TRUE(v.ok()) << line;
    return v.ok() ? std::move(*v) : serve::JsonValue();
  }

  std::string SingleNodeText(const std::string& line) {
    auto request = serve::ParseRequest(line);
    EXPECT_TRUE(request.ok()) << request.status().ToString();
    auto rendered = serve::RenderQuery(*db_, *request);
    EXPECT_TRUE(rendered.ok()) << rendered.status().ToString();
    return rendered.ok() ? rendered->text : std::string();
  }

  void ExpectRouterMatchesSingleNode(serve::LineClient& client,
                                     const std::string& line) {
    const auto response = client.RoundTrip(line);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    const auto v = Parsed(*response);
    ASSERT_NE(v.Find("ok"), nullptr) << *response;
    ASSERT_TRUE(v.Find("ok")->AsBool()) << *response;
    ASSERT_NE(v.Find("text"), nullptr) << *response;
    EXPECT_EQ(v.Find("text")->AsString(), SingleNodeText(line)) << line;
    EXPECT_EQ(v.Find("partial_failure"), nullptr) << *response;
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<engine::Database> db_;
  std::vector<std::unique_ptr<serve::Server>> backends_;
  std::unique_ptr<Router> router_;
};

TEST_F(RouterTest, TwoShardsByteIdenticalForAllKinds) {
  StartBackends(2);
  StartRouter(2);
  auto client = ConnectRouter();
  for (const serve::QueryKindSpec& spec : serve::QueryKinds()) {
    ExpectRouterMatchesSingleNode(
        client, "{\"query\":\"" + std::string(spec.name) + "\",\"top\":3}");
  }
}

TEST_F(RouterTest, FourShardsByteIdenticalForAllKinds) {
  StartBackends(2);
  StartRouter(4);
  auto client = ConnectRouter();
  for (const serve::QueryKindSpec& spec : serve::QueryKinds()) {
    ExpectRouterMatchesSingleNode(
        client, "{\"query\":\"" + std::string(spec.name) + "\",\"top\":3}");
  }
}

/// Pins every registry entry's (lane, filtered, decomposes) against a
/// literal table, so a flipped flag fails here, and checks what the
/// protocol, the server and the router derive from it.
TEST_F(RouterTest, RegistryPinsEveryKind) {
  using serve::Lane;
  struct Expected {
    const char* name;
    Lane lane;
    bool filtered;
    bool decomposes;
  };
  constexpr Expected kExpected[] = {
      {"stats", Lane::kInteractive, false, false},
      {"top-sources", Lane::kInteractive, true, true},
      {"top-events", Lane::kInteractive, false, true},
      {"quarterly", Lane::kInteractive, false, false},
      {"coreport", Lane::kBatch, true, true},
      {"follow", Lane::kBatch, false, true},
      {"country-coreport", Lane::kBatch, false, true},
      {"cross-report", Lane::kInteractive, true, true},
      {"delay", Lane::kInteractive, false, true},
      {"tone", Lane::kInteractive, false, false},
      {"first-reports", Lane::kBatch, false, true},
  };
  const auto kinds = serve::QueryKinds();
  ASSERT_EQ(kinds.size(), std::size(kExpected));
  StartBackends(1);
  StartRouter(2);
  auto client = ConnectRouter();
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    const Expected& want = kExpected[k];
    const std::string name = want.name;
    SCOPED_TRACE(name);
    EXPECT_EQ(kinds[k].name, name);
    EXPECT_EQ(kinds[k].lane, want.lane);
    EXPECT_EQ(kinds[k].filtered, want.filtered);
    EXPECT_EQ(kinds[k].decomposes(), want.decomposes);
    EXPECT_EQ(serve::FindQueryKind(name), &kinds[k]);
    EXPECT_TRUE(serve::IsKnownQueryKind(name));
    EXPECT_EQ(serve::IsBatchQueryKind(name), want.lane == Lane::kBatch);
    EXPECT_EQ(serve::IsPartialQueryKind(name), want.decomposes);
    // "partial":true parses exactly for the decomposable kinds.
    EXPECT_EQ(
        serve::ParseRequest("{\"query\":\"" + name + "\",\"partial\":true}")
            .ok(),
        want.decomposes);
    // A window is accepted on every kind; the unfiltered ones ignore it,
    // routed and single-node alike.
    ExpectRouterMatchesSingleNode(
        client, "{\"query\":\"" + name +
                    "\",\"top\":3,\"from\":\"19700101000000\","
                    "\"min_confidence\":45}");
  }
  // An unknown kind is unknown_query from the server and the router.
  const std::string unknown = R"({"query":"no-such-kind","top":3})";
  EXPECT_FALSE(serve::IsKnownQueryKind("no-such-kind"));
  EXPECT_EQ(Parsed(backends_[0]->HandleLine(unknown))
                .Find("error")->Find("code")->AsString(),
            "unknown_query");
  const auto routed = client.RoundTrip(unknown);
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  EXPECT_EQ(Parsed(*routed).Find("error")->Find("code")->AsString(),
            "unknown_query");
}

TEST_F(RouterTest, RestrictedQueriesMatch) {
  StartBackends(2);
  StartRouter(2);
  auto client = ConnectRouter();
  for (const serve::QueryKindSpec& spec : serve::QueryKinds()) {
    if (!spec.filtered) continue;
    ExpectRouterMatchesSingleNode(
        client, "{\"query\":\"" + std::string(spec.name) +
                    "\",\"top\":3,\"min_confidence\":45}");
  }
}

/// A pipelined burst through the router: one reply per line, in order,
/// each byte-identical to the single-node render; and a burst of pings
/// the router answers itself comes back without waiting on the client's
/// delayed-ACK timer (see serve_test's PipelinedBurst case).
TEST_F(RouterTest, PipelinedBurstAnswersInOrderWithoutStall) {
  StartBackends(2);
  StartRouter(2);
  auto socket = RawLineSocket::Connect(router_->port());
  ASSERT_TRUE(socket.ok()) << socket.status().ToString();

  std::vector<std::string> queries;
  for (const char* kind : {"top-sources", "cross-report", "coreport",
                           "stats", "top-events", "follow", "delay",
                           "first-reports"}) {
    queries.push_back(std::string("{\"id\":\"") + kind +
                      "\",\"query\":\"" + kind + "\",\"top\":3}");
  }
  double ms = 0;
  const auto replies = socket->Burst(queries, ms);
  ASSERT_TRUE(replies.ok()) << replies.status().ToString();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto v = Parsed((*replies)[i]);
    ASSERT_NE(v.Find("text"), nullptr) << (*replies)[i];
    EXPECT_EQ(v.Find("id")->AsString(),
              Parsed(queries[i]).Find("id")->AsString());
    EXPECT_EQ(v.Find("text")->AsString(), SingleNodeText(queries[i]))
        << queries[i];
  }

  std::vector<std::string> pings;
  for (int i = 0; i < 8; ++i) {
    pings.push_back("{\"id\":\"p" + std::to_string(i) +
                    "\",\"query\":\"ping\"}");
  }
  std::vector<double> burst_ms;
  for (int burst = 0; burst < 5; ++burst) {
    const auto pongs = socket->Burst(pings, ms);
    ASSERT_TRUE(pongs.ok()) << pongs.status().ToString();
    for (std::size_t i = 0; i < pings.size(); ++i) {
      EXPECT_EQ(Parsed((*pongs)[i]).Find("id")->AsString(),
                "p" + std::to_string(i));
    }
    burst_ms.push_back(ms);
  }
  EXPECT_LT(Median(burst_ms), 20.0);
}

TEST_F(RouterTest, AnswersPingAndMetricsLocally) {
  StartBackends(1);
  StartRouter(2);
  auto client = ConnectRouter();
  const auto pong = client.RoundTrip(R"({"id":"p","query":"ping"})");
  ASSERT_TRUE(pong.ok());
  const auto v = Parsed(*pong);
  EXPECT_TRUE(v.Find("ok")->AsBool());
  EXPECT_TRUE(v.Find("pong")->AsBool());

  const auto metrics = client.RoundTrip(R"({"query":"metrics"})");
  ASSERT_TRUE(metrics.ok());
  const auto m = Parsed(*metrics);
  ASSERT_NE(m.Find("metrics"), nullptr) << *metrics;
  EXPECT_EQ(m.Find("metrics")->Find("num_shards")->AsInt(), 2);
  EXPECT_EQ(m.Find("metrics")->Find("shards")->elements().size(), 2u);
}

TEST_F(RouterTest, EveryJsonCounterHasItsPrometheusFamily) {
  StartBackends(1);
  StartRouter(2);
  // Touch a few counters so the values differ from zero.
  router_->HandleLine(R"({"query":"stats"})");
  router_->HandleLine(R"({"query":"bogus"})");
  router_->HandleLine("not json");
  const auto json = Parsed(router_->HandleLine(R"({"query":"metrics"})"));
  const auto prom =
      Parsed(router_->HandleLine(R"({"query":"metrics_prom"})"));
  ASSERT_NE(json.Find("metrics"), nullptr);
  ASSERT_NE(prom.Find("text"), nullptr);
  const std::string text = prom.Find("text")->AsString();
  // Everything in `metrics` but the retry hint and the shard table is a
  // counter, exported as gdelt_router_<key>, `_total` appended once.
  const std::set<std::string> not_counters = {"retry_after_ms",
                                              "num_shards", "shards"};
  std::size_t counters = 0;
  for (const auto& [key, value] : json.Find("metrics")->members()) {
    if (not_counters.count(key) != 0) continue;
    EXPECT_TRUE(value.is_number()) << key;
    ++counters;
    std::string family = "gdelt_router_" + key;
    if (!family.ends_with("_total")) family += "_total";
    EXPECT_NE(text.find(StrFormat("# TYPE %s counter\n%s ", family.c_str(),
                                  family.c_str())),
              std::string::npos)
        << key << " has no counter family " << family << " in\n" << text;
  }
  EXPECT_GE(counters, 12u);
  EXPECT_NE(text.find("gdelt_router_retry_after_ms "), std::string::npos);
}

TEST_F(RouterTest, RejectsIngestAndUnknownKinds) {
  StartBackends(1);
  StartRouter(1);
  auto client = ConnectRouter();
  const auto ingest = client.RoundTrip(
      R"({"query":"ingest","export":"/tmp/x.csv"})");
  ASSERT_TRUE(ingest.ok());
  const auto v = Parsed(*ingest);
  EXPECT_FALSE(v.Find("ok")->AsBool());
  EXPECT_EQ(v.Find("error")->Find("code")->AsString(), "bad_request");

  const auto unknown = client.RoundTrip(R"({"query":"nope"})");
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(Parsed(*unknown).Find("error")->Find("code")->AsString(),
            "unknown_query");
}

TEST_F(RouterTest, RelaysBackendErrorsVerbatim) {
  StartBackends(1);
  StartRouter(1);
  auto client = ConnectRouter();
  // The backend times the request out itself (the worker finishes its
  // stalled execution at ~150ms, past the 50ms deadline, inside the
  // router's read-grace window); the router relays its error envelope
  // untouched.
  const auto response = client.RoundTrip(
      R"({"id":"t","query":"stats","timeout_ms":50,"debug_sleep_ms":150})");
  ASSERT_TRUE(response.ok());
  const auto v = Parsed(*response);
  EXPECT_FALSE(v.Find("ok")->AsBool());
  EXPECT_EQ(v.Find("error")->Find("code")->AsString(), "timeout");
  EXPECT_EQ(v.Find("id")->AsString(), "t");
}

TEST_F(RouterTest, DegradedResponseNamesTheDeadShard) {
  StartBackends(1);
  RouterOptions options;
  options.scatter_passes = 1;
  options.down_after_failures = 1;
  options.connect.connect_timeout_ms = 300;
  // Shard 0 is real; shard 1 points at a dropped listener.
  options.topology.shards.push_back(
      {Endpoint{"127.0.0.1", backends_[0]->port()}});
  options.topology.shards.push_back(
      {Endpoint{"127.0.0.1", DroppedListenerPort()}});
  router_ = std::make_unique<Router>(options);
  ASSERT_TRUE(router_->Start().ok());

  auto client = ConnectRouter();
  const auto response =
      client.RoundTrip(R"({"id":"d","query":"coreport","top":3})");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  const auto v = Parsed(*response);
  ASSERT_TRUE(v.Find("ok")->AsBool()) << *response;
  ASSERT_NE(v.Find("partial_failure"), nullptr) << *response;
  const auto& failed = v.Find("partial_failure")->elements();
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0].AsInt(), 1);
  // The surviving shard's text is present (an undercount, not empty).
  ASSERT_NE(v.Find("text"), nullptr);
  EXPECT_FALSE(v.Find("text")->AsString().empty());
  EXPECT_GT(router_->metrics().degraded_responses.load(), 0u);
}

TEST_F(RouterTest, ShardFailureBroadcastsCancelToSurvivors) {
  StartBackends(1);
  RouterOptions options;
  options.scatter_passes = 1;
  options.down_after_failures = 1;
  options.connect.connect_timeout_ms = 300;
  // Shard 0 is real; shard 1 points at a dropped listener, so its fetch
  // hard-fails and the router must tell the survivor to stop working on
  // this scatter's sub-request (best-effort `cancel` verb).
  options.topology.shards.push_back(
      {Endpoint{"127.0.0.1", backends_[0]->port()}});
  options.topology.shards.push_back(
      {Endpoint{"127.0.0.1", DroppedListenerPort()}});
  router_ = std::make_unique<Router>(options);
  ASSERT_TRUE(router_->Start().ok());

  auto client = ConnectRouter();
  const auto response =
      client.RoundTrip(R"({"id":"c","query":"coreport","top":3})");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  const auto v = Parsed(*response);
  ASSERT_TRUE(v.Find("ok")->AsBool()) << *response;
  ASSERT_NE(v.Find("partial_failure"), nullptr) << *response;
  // The survivor acknowledged a cancel line addressed at this scatter's
  // sub-request id (it may already have finished — cancellation is
  // best-effort and idempotent — but the verb round-tripped).
  EXPECT_GE(router_->metrics().cancels_sent.load(), 1u);
  // The router's metrics surface exposes the counter.
  const auto metrics = client.RoundTrip(R"({"query":"metrics"})");
  ASSERT_TRUE(metrics.ok());
  const auto m = Parsed(*metrics);
  EXPECT_GE(m.Find("metrics")->Find("cancels_sent")->AsInt(), 1);
}

TEST_F(RouterTest, AllShardsDeadIsUnavailable) {
  RouterOptions options;
  options.scatter_passes = 1;
  options.connect.connect_timeout_ms = 300;
  options.topology.shards.push_back(
      {Endpoint{"127.0.0.1", DroppedListenerPort()}});
  options.topology.shards.push_back(
      {Endpoint{"127.0.0.1", DroppedListenerPort()}});
  router_ = std::make_unique<Router>(options);
  ASSERT_TRUE(router_->Start().ok());

  auto client = ConnectRouter();
  const auto response =
      client.RoundTrip(R"({"query":"top-sources","top":3})");
  ASSERT_TRUE(response.ok());
  const auto v = Parsed(*response);
  EXPECT_FALSE(v.Find("ok")->AsBool());
  EXPECT_EQ(v.Find("error")->Find("code")->AsString(), "unavailable");
}

TEST_F(RouterTest, ReplicaFailoverInsideOneShard) {
  StartBackends(1);
  RouterOptions options;
  options.down_after_failures = 1;
  options.connect.connect_timeout_ms = 300;
  // Dead replica first: the router must fail over to the live one and
  // still answer, marking the dead endpoint down for next time.
  options.topology.shards.push_back(
      {Endpoint{"127.0.0.1", DroppedListenerPort()},
       Endpoint{"127.0.0.1", backends_[0]->port()}});
  router_ = std::make_unique<Router>(options);
  ASSERT_TRUE(router_->Start().ok());

  auto client = ConnectRouter();
  ExpectRouterMatchesSingleNode(client,
                                R"({"query":"top-sources","top":3})");
  EXPECT_FALSE(router_->pool().AllReplicasDown(0));
}

TEST_F(RouterTest, HealthProbeMarksDownAndRevives) {
  StartBackends(1);
  BackendPoolOptions options;
  options.down_after_failures = 1;
  options.connect.connect_timeout_ms = 300;
  Topology topology;
  const int dead_port = DroppedListenerPort();
  topology.shards.push_back({Endpoint{"127.0.0.1", backends_[0]->port()},
                             Endpoint{"127.0.0.1", dead_port}});
  BackendPool pool(topology, options);

  pool.ProbeAll();
  EXPECT_FALSE(pool.AllReplicasDown(0));
  std::string health = pool.HealthJson();
  EXPECT_NE(health.find("\"down\":true"), std::string::npos) << health;
  EXPECT_NE(health.find("\"down\":false"), std::string::npos) << health;
  // The live backend's queue gauges made it into the health surface.
  EXPECT_NE(health.find("\"queue_capacity\":64"), std::string::npos)
      << health;

  // A backend comes up on the dead port: the next sweep revives it.
  serve::ServerOptions revive_options;
  revive_options.port = dead_port;
  serve::Server revived(*db_, nullptr, revive_options);
  ASSERT_TRUE(revived.Start().ok());
  pool.ProbeAll();
  health = pool.HealthJson();
  EXPECT_EQ(health.find("\"down\":true"), std::string::npos) << health;
  revived.Stop();
}

}  // namespace
}  // namespace gdelt::router
