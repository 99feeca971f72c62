#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>

#include "parallel/morsel.hpp"
#include "router/router.hpp"
#include "router/topology.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/partial.hpp"
#include "serve/protocol.hpp"
#include "serve/render.hpp"
#include "serve/server.hpp"
#include "stream/delta_store.hpp"

namespace e2e {
namespace {

namespace serve = gdelt::serve;
using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Samples of one metric, reduced to their median at the end.
class Samples {
 public:
  void Add(const std::string& name, double v) { by_name_[name].push_back(v); }
  void Report(Metrics& out, const std::string& unit) const {
    for (const auto& [name, v] : by_name_) out[name] = {Quantile(v, 0.5), unit};
  }

 private:
  std::map<std::string, std::vector<double>> by_name_;
};

serve::Request MustParse(const std::string& line) {
  auto r = serve::ParseRequest(line);
  if (!r.ok()) {
    std::fprintf(stderr, "replay: bad request line %s: %s\n", line.c_str(),
                 r.status().ToString().c_str());
    std::abort();
  }
  return *r;
}

/// The first pages a dashboard connection draws (the same stream the load
/// generator's connection 0 uses).
std::vector<std::vector<int>> FirstPages(const Plan& dashboard, int n) {
  Rng rng = PageRng(dashboard, 0);
  std::vector<std::vector<int>> pages;
  for (int i = 0; i < n; ++i) pages.push_back(NextPage(dashboard, rng));
  return pages;
}

/// Kernels, partial frames and merges over the first rounds of the analyst
/// cycle.
void ReplayKernels(const gdelt::engine::Database& db, const Plan& analyst,
                   Metrics& out, std::uint64_t& failed) {
  constexpr std::size_t kRounds = kAnalystRounds;
  const std::size_t n =
      std::min(analyst.analyst_cycle.size(), kRounds * 11);
  Samples render;
  Samples shard;
  Samples merge;
  std::map<std::string, std::vector<double>> bytes;
  auto& pool = gdelt::parallel::MorselPool::Shared();
  const auto before = pool.stats();
  for (std::size_t i = 0; i < n; ++i) {
    const serve::Request r =
        MustParse(analyst.catalog.lines[static_cast<std::size_t>(
            analyst.analyst_cycle[i])]);
    auto t0 = Clock::now();
    auto whole = serve::RenderQuery(db, r);
    render.Add("render." + r.kind + "_ms", MsSince(t0));
    if (!whole.ok()) {
      ++failed;
      continue;
    }
    if (!serve::IsPartialQueryKind(r.kind)) continue;
    std::vector<serve::JsonValue> frames;
    for (std::uint32_t s = 0; s < 2; ++s) {
      serve::Request part = r;
      part.partial = true;
      part.shard = s;
      part.of = 2;
      t0 = Clock::now();
      auto frame = serve::RenderPartialFrame(
          db, part, gdelt::parallel::Backend::kMorselPool);
      if (s == 0) {
        shard.Add("partial.shard." + r.kind + "_ms", MsSince(t0));
      }
      if (!frame.ok()) break;
      if (s == 0) {
        bytes["partial.bytes." + r.kind].push_back(
            static_cast<double>(frame->text.size()));
      }
      auto parsed = serve::JsonValue::Parse(frame->text);
      if (!parsed.ok()) break;
      frames.push_back(std::move(*parsed));
    }
    if (frames.size() != 2) {
      ++failed;
      continue;
    }
    t0 = Clock::now();
    auto merged = serve::MergePartialFrames(r, frames);
    merge.Add("partial.merge." + r.kind + "_ms", MsSince(t0));
    if (!merged.ok() || *merged != whole->text) {
      std::fprintf(stderr, "replay: merged frames differ from the render: %s\n",
                   analyst.catalog.lines[static_cast<std::size_t>(
                       analyst.analyst_cycle[i])].c_str());
      ++failed;
    }
  }
  const auto after = pool.stats();
  render.Report(out, "ms");
  shard.Report(out, "ms");
  merge.Report(out, "ms");
  for (auto& [name, v] : bytes) {
    // Lower median: an exact frame size that one of the requests produced.
    std::sort(v.begin(), v.end());
    out[name] = {v[(v.size() - 1) / 2], "bytes"};
  }
  out["parallel.morsels"] = {
      static_cast<double>(after.morsels - before.morsels), "count"};
  out["parallel.steals"] = {static_cast<double>(after.steals - before.steals),
                            "count"};
  out["parallel.skipped"] = {
      static_cast<double>(after.morsels_skipped - before.morsels_skipped),
      "count"};
}

/// Windowed widget renders, request parsing, the result cache and the
/// server's in-memory hit path over the dashboard's page stream.
void ReplayFront(const gdelt::engine::Database& db, const Plan& dashboard,
                 Metrics& out) {
  constexpr int kRenderedPages = 60;
  constexpr int kCachePages = 2000;
  const std::vector<std::vector<int>> pages =
      FirstPages(dashboard, kCachePages);

  Samples window;
  std::vector<double> parse_us;
  // Widget position -> one rendered text, the cache payload for that
  // widget (payload size is what a Put copies).
  std::vector<std::string> payload(pages[0].size());
  for (int p = 0; p < kRenderedPages; ++p) {
    for (std::size_t j = 0; j < pages[static_cast<std::size_t>(p)].size();
         ++j) {
      const std::string& line = dashboard.catalog.lines[static_cast<std::size_t>(
          pages[static_cast<std::size_t>(p)][j])];
      auto t0 = Clock::now();
      auto parsed = serve::ParseRequest(line);
      const std::string key = parsed.ok() ? serve::CanonicalKey(*parsed) : "";
      parse_us.push_back(MsSince(t0) * 1e3);
      if (!parsed.ok()) continue;
      const bool windowed = !parsed->from.empty();
      if (!windowed && !payload[j].empty()) continue;
      t0 = Clock::now();
      auto text = serve::RenderQuery(db, *parsed);
      if (windowed) window.Add("render.window." + parsed->kind + "_ms", MsSince(t0));
      if (text.ok() && payload[j].empty()) payload[j] = text->text;
    }
  }
  window.Report(out, "ms");
  out["protocol.parse_us"] = {Quantile(parse_us, 0.5), "us"};

  std::vector<std::string> keys(dashboard.catalog.size());
  for (const auto& page : pages) {
    for (const int k : page) {
      std::string& key = keys[static_cast<std::size_t>(k)];
      if (key.empty()) {
        key = serve::CanonicalKey(
            MustParse(dashboard.catalog.lines[static_cast<std::size_t>(k)]));
      }
    }
  }
  serve::ResultCache cache(serve::ServerOptions{}.cache_entries);
  std::vector<double> get_us;
  std::vector<double> put_us;
  for (const auto& page : pages) {
    for (std::size_t j = 0; j < page.size(); ++j) {
      const std::string& key = keys[static_cast<std::size_t>(page[j])];
      auto t0 = Clock::now();
      const bool hit = cache.GetTagged(key, 0).has_value();
      get_us.push_back(MsSince(t0) * 1e3);
      if (hit) continue;
      t0 = Clock::now();
      cache.Put(key, 0, payload[j]);
      put_us.push_back(MsSince(t0) * 1e3);
    }
  }
  out["cache.get_us"] = {Quantile(get_us, 0.5), "us"};
  out["cache.put_us"] = {Quantile(put_us, 0.5), "us"};

  // Server::HandleLine on a cached key, no socket: the front's own cost
  // of a hit (parse, canonical key, lookup, envelope).
  serve::Server server(db, nullptr, serve::ServerOptions{});
  const std::string& line = dashboard.catalog.lines[static_cast<std::size_t>(
      dashboard.page_constants.back())];
  server.HandleLine(line);
  std::vector<double> hit_us;
  for (int i = 0; i < 2000; ++i) {
    const auto t0 = Clock::now();
    server.HandleLine(line);
    hit_us.push_back(MsSince(t0) * 1e3);
  }
  out["server.hit_us"] = {Quantile(hit_us, 0.5), "us"};
}

/// The probe ingests applied to a private delta store.
void ReplayIngest(const gdelt::engine::Database& db,
                  const std::vector<ArchivePair>& ingests, Metrics& out,
                  std::uint64_t& failed) {
  gdelt::stream::DeltaStore delta(&db);
  std::vector<double> ms;
  const std::size_t n = std::min<std::size_t>(ingests.size(), 1 + kProbeIngests);
  for (std::size_t i = 1; i < n; ++i) {
    const auto t0 = Clock::now();
    const auto s = delta.IngestArchivePair(ingests[i].first, ingests[i].second);
    ms.push_back(MsSince(t0));
    if (!s.ok()) ++failed;
  }
  out["stream.ingest_ms"] = {Quantile(ms, 0.5), "ms"};
  out["stream.delta_rows"] = {
      static_cast<double>(delta.delta_events() + delta.delta_mentions()),
      "count"};
}

/// Router overhead: each routed analyst request against its two shard
/// sub-requests sent straight to the same in-process shards.
void ReplayRouter(const gdelt::engine::Database& db, const Plan& analyst,
                  Metrics& out, StageTotals& stages, std::uint64_t& failed) {
  serve::ServerOptions shard_options;
  shard_options.cache_entries = 0;
  std::vector<std::unique_ptr<serve::Server>> shards;
  std::string topology;
  for (int s = 0; s < 2; ++s) {
    shards.push_back(std::make_unique<serve::Server>(db, nullptr, shard_options));
    if (!shards.back()->Start().ok()) {
      ++failed;
      return;
    }
    topology += (s ? ";127.0.0.1:" : "127.0.0.1:") +
                std::to_string(shards.back()->port());
  }
  gdelt::router::RouterOptions router_options;
  router_options.topology = *gdelt::router::ParseTopology(topology);
  gdelt::router::Router router(router_options);
  if (!router.Start().ok()) {
    ++failed;
    return;
  }
  auto to_router = serve::LineClient::Connect("127.0.0.1", router.port());
  auto to_shard0 = serve::LineClient::Connect("127.0.0.1", shards[0]->port());
  auto to_shard1 = serve::LineClient::Connect("127.0.0.1", shards[1]->port());
  if (!to_router.ok() || !to_shard0.ok() || !to_shard1.ok()) {
    ++failed;
    return;
  }
  serve::LineClient* direct[2] = {&*to_shard0, &*to_shard1};
  const auto round_trip = [&failed](serve::LineClient& c, const std::string& line,
                                    std::string* reply) {
    const auto t0 = Clock::now();
    auto r = c.RoundTrip(line);
    const double ms = MsSince(t0);
    if (!r.ok() || r->find("\"ok\":true") == std::string::npos) ++failed;
    if (r.ok() && reply != nullptr) *reply = std::move(*r);
    return ms;
  };
  constexpr std::size_t kRounds = kAnalystRounds;
  const std::size_t n =
      std::min(analyst.analyst_cycle.size(), kRounds * 11);
  std::vector<double> overhead;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& line = analyst.catalog.lines[static_cast<std::size_t>(
        analyst.analyst_cycle[i])];
    const serve::Request r = MustParse(line);
    std::string reply;
    if (!serve::IsPartialQueryKind(r.kind)) {
      round_trip(*direct[0], Traced(line), &reply);
      stages.Add(reply, serve::IsBatchQueryKind(r.kind));
      continue;
    }
    const double routed = round_trip(*to_router, line, nullptr);
    double slowest = 0;
    for (std::uint32_t s = 0; s < 2; ++s) {
      std::string sub = serve::BuildShardRequestLine(r, s, 2);
      sub.pop_back();  // the trailing newline; Traced() wants the object
      slowest = std::max(slowest, round_trip(*direct[s], Traced(sub), &reply));
      stages.Add(reply, serve::IsBatchQueryKind(r.kind));
    }
    overhead.push_back(routed - slowest);
  }
  out["router.overhead_ms"] = {Quantile(overhead, 0.5), "ms"};
  to_router->Close();
  to_shard0->Close();
  to_shard1->Close();
  router.Stop();
  for (auto& s : shards) s->Stop();
}

}  // namespace

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void StageTotals::Add(const std::string& response_line, bool batch_lane) {
  auto reply = serve::JsonValue::Parse(response_line);
  const serve::JsonValue* trace = reply.ok() ? reply->Find("trace") : nullptr;
  const serve::JsonValue* stages = trace != nullptr ? trace->Find("stages") : nullptr;
  if (stages == nullptr) return;
  for (const serve::JsonValue& entry : stages->elements()) {
    const serve::JsonValue* name_field = entry.Find("name");
    const serve::JsonValue* ms_field = entry.Find("ms");
    if (name_field == nullptr || ms_field == nullptr) continue;
    const std::string& name = name_field->AsString();
    const double ms = ms_field->AsNumber();
    auto& s = stage[name];
    s.first += ms;
    ++s.second;
    if (name == "queue_wait") {
      queue_wait[batch_lane ? 1 : 0].first += ms;
      ++queue_wait[batch_lane ? 1 : 0].second;
    }
  }
}

void StageTotals::Merge(const StageTotals& other) {
  for (const auto& [name, s] : other.stage) {
    stage[name].first += s.first;
    stage[name].second += s.second;
  }
  for (int lane = 0; lane < 2; ++lane) {
    queue_wait[lane].first += other.queue_wait[lane].first;
    queue_wait[lane].second += other.queue_wait[lane].second;
  }
}

void StageTotals::Report(Metrics& out) const {
  const auto mean = [](const std::pair<double, std::uint64_t>& s) {
    return s.second == 0 ? 0.0 : s.first / static_cast<double>(s.second);
  };
  for (const char* name :
       {"parse", "cache_lookup", "queue_wait", "execute", "cache_put"}) {
    const auto it = stage.find(name);
    out[std::string("server.stage.") + name + "_ms"] = {
        it == stage.end() ? 0.0 : mean(it->second), "ms"};
  }
  out["scheduler.queue_wait.interactive_ms"] = {mean(queue_wait[0]), "ms"};
  out["scheduler.queue_wait.batch_ms"] = {mean(queue_wait[1]), "ms"};
}

Metrics ReplayLayers(const gdelt::engine::Database& db, const Plan& analyst,
                     const Plan& dashboard, StageTotals& stages,
                     std::uint64_t& failed) {
  Metrics out;
  ReplayKernels(db, analyst, out, failed);
  ReplayFront(db, dashboard, out);
  ReplayIngest(db, analyst.ingests, out, failed);
  ReplayRouter(db, analyst, out, stages, failed);
  return out;
}

}  // namespace e2e
