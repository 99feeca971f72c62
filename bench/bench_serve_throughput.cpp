// Serving throughput: requests/sec through the gdelt_serve request path,
// cold (every request renders against the database) vs cached (the LRU
// result cache answers without touching a kernel).
//
// The server runs in-process on an ephemeral loopback port with real
// sockets and real worker admission, so the measured path is exactly what
// a deployed daemon executes — protocol parse, cache lookup, scheduler
// hop, render, response framing.
#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/fixture.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "trace/trace.hpp"
#include "util/sync.hpp"
#include "util/timer.hpp"

namespace gdelt::bench {
namespace {

constexpr int kClients = 4;
constexpr int kRequestsPerClient = 50;
const char* const kRequestLine = R"({"query":"top-sources","top":5})";
/// A saturating batch query: full-table co-reporting over the top
/// sources (classified kBatch by the scheduler).
const char* const kBatchRequestLine = R"({"query":"coreport","top":16})";

serve::ServerOptions ServeOptions(std::size_t cache_entries) {
  serve::ServerOptions options;
  options.scheduler.workers = 2;
  options.cache_entries = cache_entries;
  return options;
}

/// Sends `count` copies of the canonical request, asserting transport
/// ok; appends each round-trip's latency to `latencies_ms` when given.
void Hammer(int port, int count, std::vector<double>* latencies_ms = nullptr) {
  auto client = serve::LineClient::Connect("127.0.0.1", port);
  if (!client.ok()) return;
  for (int i = 0; i < count; ++i) {
    WallTimer timer;
    const auto response = client->RoundTrip(kRequestLine);
    if (!response.ok()) return;
    if (latencies_ms != nullptr) {
      latencies_ms->push_back(timer.ElapsedSeconds() * 1e3);
    }
  }
}

/// Wall seconds for kClients concurrent clients to push their requests;
/// fills `latencies_ms` with every request's round-trip latency.
double MeasureOnce(serve::Server& server, std::vector<double>& latencies_ms) {
  WallTimer timer;
  std::vector<std::vector<double>> per_client(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&server, &per_client, c] {
      Hammer(server.port(), kRequestsPerClient, &per_client[c]);
    });
  }
  for (auto& t : threads) t.join();
  const double wall = timer.ElapsedSeconds();
  for (auto& v : per_client) {
    latencies_ms.insert(latencies_ms.end(), v.begin(), v.end());
  }
  return wall;
}

/// Interactive latency under batch load: `background` connections loop
/// full-table co-reporting requests while one foreground client sends
/// `count` cheap top-sources requests; returns the foreground latencies.
/// The result cache is off, so every request renders.
std::vector<double> MeasureInteractiveUnderLoad(int count) {
  serve::ServerOptions options = ServeOptions(/*cache_entries=*/0);
  // One execution worker, so the interactive requests pass the batch
  // scans only through the priority lane.
  options.scheduler.workers = 1;
  serve::Server server(Db(), nullptr, options);
  if (!server.Start().ok()) return {};

  std::atomic<bool> stop{false};
  constexpr int kBackground = 2;
  std::vector<std::thread> background;
  for (int b = 0; b < kBackground; ++b) {
    background.emplace_back([&server, &stop] {
      auto client = serve::LineClient::Connect("127.0.0.1", server.port());
      if (!client.ok()) return;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto response = client->RoundTrip(kBatchRequestLine);
        if (!response.ok()) return;
      }
    });
  }

  std::vector<double> latencies_ms;
  {
    auto client = serve::LineClient::Connect("127.0.0.1", server.port());
    if (client.ok()) {
      for (int i = 0; i < count; ++i) {
        WallTimer timer;
        const auto response = client->RoundTrip(kRequestLine);
        if (!response.ok()) break;
        latencies_ms.push_back(timer.ElapsedSeconds() * 1e3);
      }
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : background) t.join();
  server.Stop();
  return latencies_ms;
}

/// Doomed-flood: every other request is a full-table co-reporting scan
/// with a 1ms deadline — guaranteed dead on arrival — interleaved with
/// cheap interactive requests ("goodput"). With cooperative cancellation
/// the workers notice the expired deadline at dequeue (or a few morsels
/// in) and move on; without it every doomed scan runs to completion
/// before its timeout error is even written, starving the good half.
struct FloodResult {
  double wall_s = 0.0;
  int good_ok = 0;
  std::vector<double> good_latencies_ms;
};

FloodResult MeasureDoomedFlood(bool cancellation) {
  const char* const kDoomedLine =
      R"({"query":"coreport","top":64,"timeout_ms":1})";
  serve::ServerOptions options = ServeOptions(/*cache_entries=*/0);
  options.cancellation = cancellation;
  serve::Server server(Db(), nullptr, options);
  FloodResult result;
  if (!server.Start().ok()) return result;

  // As many clients as workers: a doomed request usually meets an idle
  // worker, clears the dequeue-time deadline check (which both modes
  // share — it predates cancellation) and *starts the scan*. What this
  // measures is the mid-scan contrast: with cancellation the armed token
  // trips at the first morsel poll; without it the worker serves the
  // full dead scan before the timeout error is written.
  constexpr int kFloodClients = 2;
  constexpr int kPerClient = 30;  // 15 doomed + 15 good each
  std::atomic<int> good_ok{0};
  std::vector<std::vector<double>> per_client(kFloodClients);
  WallTimer timer;
  std::vector<std::thread> threads;
  for (int c = 0; c < kFloodClients; ++c) {
    threads.emplace_back([&server, &good_ok, &per_client, kDoomedLine, c] {
      auto client = serve::LineClient::Connect("127.0.0.1", server.port());
      if (!client.ok()) return;
      for (int i = 0; i < kPerClient; ++i) {
        if (i % 2 == 0) {
          // Doomed half: the response is always a timeout/cancelled
          // error; only how long the server burns on it differs.
          if (!client->RoundTrip(kDoomedLine).ok()) return;
          continue;
        }
        WallTimer request_timer;
        const auto response = client->RoundTrip(kRequestLine);
        if (!response.ok()) return;
        if (response->find("\"ok\":true") != std::string::npos) {
          good_ok.fetch_add(1, std::memory_order_relaxed);
          per_client[c].push_back(request_timer.ElapsedSeconds() * 1e3);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  result.wall_s = timer.ElapsedSeconds();
  server.Stop();
  result.good_ok = good_ok.load();
  for (auto& v : per_client) {
    result.good_latencies_ms.insert(result.good_latencies_ms.end(),
                                    v.begin(), v.end());
  }
  return result;
}

void BM_ServeRoundTripCold(benchmark::State& state) {
  serve::Server server(Db(), nullptr, ServeOptions(/*cache_entries=*/0));
  if (!server.Start().ok()) return;
  auto client = serve::LineClient::Connect("127.0.0.1", server.port());
  if (!client.ok()) return;
  for (auto _ : state) {
    auto response = client->RoundTrip(kRequestLine);
    benchmark::DoNotOptimize(response);
  }
  state.SetItemsProcessed(state.iterations());
  server.Stop();
}
BENCHMARK(BM_ServeRoundTripCold);

void BM_ServeRoundTripCached(benchmark::State& state) {
  serve::Server server(Db(), nullptr, ServeOptions(/*cache_entries=*/64));
  if (!server.Start().ok()) return;
  auto client = serve::LineClient::Connect("127.0.0.1", server.port());
  if (!client.ok()) return;
  (void)client->RoundTrip(kRequestLine);  // prime the cache
  for (auto _ : state) {
    auto response = client->RoundTrip(kRequestLine);
    benchmark::DoNotOptimize(response);
  }
  state.SetItemsProcessed(state.iterations());
  server.Stop();
}
BENCHMARK(BM_ServeRoundTripCached);

double Percentile(std::vector<double> ms, double p) {
  if (ms.empty()) return 0.0;
  std::sort(ms.begin(), ms.end());
  auto at = static_cast<std::size_t>(p * static_cast<double>(ms.size()));
  return ms[std::min(at, ms.size() - 1)];
}

void Print() {
  const int total = kClients * kRequestsPerClient;
  BenchJsonWriter writer("serve_throughput");

  std::vector<double> cold_lat;
  serve::Server cold(Db(), nullptr, ServeOptions(/*cache_entries=*/0));
  if (!cold.Start().ok()) return;
  const double cold_s = MeasureOnce(cold, cold_lat);
  cold.Stop();
  writer.RecordLatencies("cold_" + std::to_string(total) + "req", kClients,
                         cold_s, cold_lat);

  std::vector<double> cached_lat;
  serve::Server cached(Db(), nullptr, ServeOptions(/*cache_entries=*/64));
  if (!cached.Start().ok()) return;
  Hammer(cached.port(), 1);  // prime
  const double cached_s = MeasureOnce(cached, cached_lat);
  cached.Stop();
  writer.RecordLatencies("cached_" + std::to_string(total) + "req", kClients,
                         cached_s, cached_lat);

  // Tracing overhead: the same cold workload with span tracing armed
  // (every TRACE_SPAN records into the global ring). The disabled run
  // above is the baseline; the acceptance bar is that *compiled-in but
  // disabled* tracing costs nothing, and even armed tracing stays cheap.
  trace::Reset();
  trace::SetEnabled(true);
  serve::Server traced(Db(), nullptr, ServeOptions(/*cache_entries=*/0));
  if (!traced.Start().ok()) {
    trace::SetEnabled(false);
    return;
  }
  std::vector<double> traced_lat;
  const double traced_s = MeasureOnce(traced, traced_lat);
  traced.Stop();
  trace::SetEnabled(false);
  const std::uint64_t spans_recorded = trace::RecordedCount();
  trace::Reset();
  writer.RecordLatencies("cold_traced_" + std::to_string(total) + "req",
                         kClients, traced_s, traced_lat);

  // Interactive latency under a saturating batch query (priority lane +
  // shared pool).
  constexpr int kInteractiveCount = 200;
  const auto pool_lat = MeasureInteractiveUnderLoad(kInteractiveCount);
  writer.RecordLatencies("interactive_under_batch_morsel_pool", 1,
                         /*wall_seconds=*/0.0, pool_lat);

  // Doomed-flood: goodput with cooperative cancellation on vs off. The
  // acceptance bar (ISSUE 8) is >=2x goodput with cancellation on.
  const auto flood_on = MeasureDoomedFlood(/*cancellation=*/true);
  const auto flood_off = MeasureDoomedFlood(/*cancellation=*/false);
  writer.RecordLatencies("doomed_flood_cancellation_on", 2, flood_on.wall_s,
                         flood_on.good_latencies_ms);
  writer.RecordLatencies("doomed_flood_cancellation_off", 2, flood_off.wall_s,
                         flood_off.good_latencies_ms);

  std::printf("\n=== Serving throughput (%d clients x %d requests) ===\n",
              kClients, kRequestsPerClient);
  std::printf("  cold          : %8.1f req/s  (%.3fs total, p50 %.1fms "
              "p99 %.1fms)\n",
              total / cold_s, cold_s, Percentile(cold_lat, 0.50),
              Percentile(cold_lat, 0.99));
  std::printf("  cached        : %8.1f req/s  (%.3fs total, p50 %.1fms "
              "p99 %.1fms)\n",
              total / cached_s, cached_s, Percentile(cached_lat, 0.50),
              Percentile(cached_lat, 0.99));
  std::printf("  speedup       : %.1fx\n", cold_s / cached_s);
  std::printf("  cold + tracing: %8.1f req/s  (%.3fs total, %llu spans, "
              "%+.1f%% vs cold)\n",
              total / traced_s, traced_s,
              static_cast<unsigned long long>(spans_recorded),
              (traced_s / cold_s - 1.0) * 100.0);
  std::printf("\n--- interactive p99 under full-table co-reporting load "
              "(%d requests, 1 worker) ---\n",
              kInteractiveCount);
  std::printf("  morsel pool      : p50 %7.1fms  p95 %7.1fms  p99 %7.1fms\n",
              Percentile(pool_lat, 0.50), Percentile(pool_lat, 0.95),
              Percentile(pool_lat, 0.99));

  std::printf("\n--- doomed flood: 50%% of requests carry a 1ms deadline "
              "onto a full-table scan ---\n");
  const double goodput_on =
      flood_on.wall_s > 0.0 ? flood_on.good_ok / flood_on.wall_s : 0.0;
  const double goodput_off =
      flood_off.wall_s > 0.0 ? flood_off.good_ok / flood_off.wall_s : 0.0;
  std::printf("  cancellation on  : %7.1f good req/s  (%d ok in %.3fs, "
              "p99 %.1fms)\n",
              goodput_on, flood_on.good_ok, flood_on.wall_s,
              Percentile(flood_on.good_latencies_ms, 0.99));
  std::printf("  cancellation off : %7.1f good req/s  (%d ok in %.3fs, "
              "p99 %.1fms)\n",
              goodput_off, flood_off.good_ok, flood_off.wall_s,
              Percentile(flood_off.good_latencies_ms, 0.99));
  if (goodput_on > 0.0 && goodput_off > 0.0) {
    std::printf("  goodput gain     : %.2fx\n", goodput_on / goodput_off);
  }
}

}  // namespace
}  // namespace gdelt::bench

GDELT_BENCH_MAIN(gdelt::bench::Print)
