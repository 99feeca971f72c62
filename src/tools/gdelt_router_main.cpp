// gdelt_router: scatter/gather front-end over gdelt_serve shard backends.
//
// Speaks the same NDJSON-over-TCP protocol as gdelt_serve, so clients
// point here unchanged. The query kinds the registry scatters are split
// into per-shard partial-aggregate sub-requests, scattered under one
// deadline and merged into text byte-identical to a single-node answer;
// the rest are relayed whole to one backend. See docs/OPERATIONS.md for the topology
// format, health-check behavior and the degraded-mode runbook.
//
// Usage: gdelt_router --shards "h:p[,h:p...][;h:p...]" [--port 0] ...
#include <csignal>
#include <cstdio>
#include <thread>

#include "router/router.hpp"
#include "router/topology.hpp"
#include "util/args.hpp"
#include "util/strings.hpp"

using namespace gdelt;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("Routes gdelt_serve queries across shard backends.");
  args.AddString("shards", "",
                 "topology: shards separated by ';', replicas of one shard "
                 "by ',', each endpoint host:port");
  args.AddString("host", "127.0.0.1", "listen address (IPv4)");
  args.AddInt("port", 0, "listen port (0 = pick an ephemeral port)");
  args.AddInt("timeout-ms", 30000, "default per-request deadline");
  args.AddInt("max-inflight", 64, "concurrent scattered queries");
  args.AddInt("scatter-passes", 2,
              "passes over a shard's replica list before giving up");
  args.AddInt("down-after", 3,
              "consecutive failures before a backend is marked down");
  args.AddInt("health-interval-ms", 2000,
              "backend health probe period (0 disables)");
  args.AddInt("connect-timeout-ms", 1000, "per-dial connect timeout");
  args.AddBool("help", false, "print usage");
  if (const Status s = args.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "%s\n%s", s.ToString().c_str(),
                 args.HelpText().c_str());
    return 2;
  }
  if (args.GetBool("help")) {
    std::printf("%s", args.HelpText().c_str());
    return 0;
  }
  if (args.GetString("shards").empty()) {
    std::fprintf(stderr, "--shards is required\n%s", args.HelpText().c_str());
    return 2;
  }
  auto topology = router::ParseTopology(args.GetString("shards"));
  if (!topology.ok()) {
    std::fprintf(stderr, "bad --shards: %s\n",
                 topology.status().ToString().c_str());
    return 2;
  }

  router::RouterOptions options;
  options.host = args.GetString("host");
  options.port = static_cast<int>(args.GetInt("port"));
  options.topology = std::move(*topology);
  options.default_timeout_ms = args.GetInt("timeout-ms");
  options.max_inflight = static_cast<std::size_t>(args.GetInt("max-inflight"));
  options.scatter_passes =
      static_cast<std::uint32_t>(args.GetInt("scatter-passes"));
  options.down_after_failures =
      static_cast<std::uint32_t>(args.GetInt("down-after"));
  options.health_interval_ms =
      static_cast<int>(args.GetInt("health-interval-ms"));
  options.connect.connect_timeout_ms = args.GetInt("connect-timeout-ms");

  router::Router router(options);
  if (const Status s = router.Start(); !s.ok()) {
    std::fprintf(stderr, "start failed: %s\n", s.ToString().c_str());
    return 1;
  }

  // Smoke scripts parse this line to find the ephemeral port.
  std::printf("READY port=%d\n", router.port());
  std::fflush(stdout);

  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  router.Stop();
  return 0;
}
