// gdelt_serve: long-lived query daemon over a converted binary database.
//
// Loads the database once, then answers newline-delimited JSON requests
// over TCP (protocol: docs/PROTOCOL.md) until SIGTERM/SIGINT, draining
// in-flight queries before exiting. With --follow it stacks a DeltaStore
// on top so `ingest` requests can absorb fresh 15-minute chunk pairs
// without a restart; each ingest bumps the cache epoch.
//
// Usage: gdelt_serve --db <dir> [--port 0] [--workers N] [--queue N]
//                    [--cache N] [--follow]
//
// Every parallel loop runs on one shared morsel pool of OMP_NUM_THREADS
// workers when that variable is set, else one per hardware thread.
#include <csignal>
#include <cstdio>
#include <memory>
#include <thread>

#include "engine/database.hpp"
#include "io/file.hpp"
#include "serve/server.hpp"
#include "stream/delta_store.hpp"
#include "trace/trace.hpp"
#include "util/args.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

using namespace gdelt;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("Serves the paper's analyses over newline-delimited JSON.");
  args.AddString("db", "gdelt_db", "binary database directory");
  args.AddString("host", "127.0.0.1", "listen address (IPv4)");
  args.AddInt("port", 0, "listen port (0 = pick an ephemeral port)");
  args.AddInt("workers", 2, "query worker threads");
  args.AddInt("queue", 64, "admission queue capacity");
  args.AddInt("cache", 1024, "result cache entries (0 disables)");
  args.AddInt("timeout-ms", 30000, "default per-request deadline");
  args.AddInt("max-timeout-ms", 300000,
              "ceiling for client-supplied timeout_ms; requests asking for "
              "more are clamped and the effective deadline is echoed back");
  args.AddBool("no-cancellation", false,
               "disable cooperative cancellation (deadlines checked only "
               "between requests, not mid-scan) — for A/B benchmarking");
  args.AddInt("metrics-interval", 60,
              "seconds between metrics log lines (0 disables)");
  args.AddInt("slow-ms", 0,
              "log queries slower than this many ms with a per-stage "
              "breakdown (0 disables)");
  args.AddString("trace-dir", "",
                 "enable span tracing and dump a Chrome trace_event JSON "
                 "file here on shutdown");
  args.AddBool("follow", false,
               "attach a streaming delta store (enables `ingest` requests)");
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

  WallTimer load_timer;
  auto db = engine::Database::Load(args.GetString("db"));
  if (!db.ok()) {
    std::fprintf(stderr, "load failed: %s\n", db.status().ToString().c_str());
    return 1;
  }
  GDELT_LOG(kInfo, StrFormat("serve: database loaded in %.2fs (%llu events, "
                             "%llu mentions, %u sources)",
                             load_timer.ElapsedSeconds(),
                             static_cast<unsigned long long>(db->num_events()),
                             static_cast<unsigned long long>(
                                 db->num_mentions()),
                             db->num_sources()));

  std::unique_ptr<stream::DeltaStore> delta;
  if (args.GetBool("follow")) {
    delta = std::make_unique<stream::DeltaStore>(&*db);
  }

  serve::ServerOptions options;
  options.host = args.GetString("host");
  options.port = static_cast<int>(args.GetInt("port"));
  options.scheduler.workers = static_cast<int>(args.GetInt("workers"));
  options.scheduler.queue_capacity =
      static_cast<std::size_t>(args.GetInt("queue"));
  options.cache_entries = static_cast<std::size_t>(args.GetInt("cache"));
  options.default_timeout_ms = args.GetInt("timeout-ms");
  options.max_timeout_ms = args.GetInt("max-timeout-ms");
  options.cancellation = !args.GetBool("no-cancellation");
  options.metrics_log_interval_s =
      static_cast<int>(args.GetInt("metrics-interval"));
  options.slow_query_ms = args.GetInt("slow-ms");
  options.trace_dir = args.GetString("trace-dir");
  if (!options.trace_dir.empty()) {
    if (const Status s = MakeDirectories(options.trace_dir); !s.ok()) {
      std::fprintf(stderr, "bad --trace-dir: %s\n", s.ToString().c_str());
      return 2;
    }
    trace::SetEnabled(true);
  }

  serve::Server server(*db, delta.get(), options);
  if (const Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "start failed: %s\n", s.ToString().c_str());
    return 1;
  }

  // Smoke scripts parse this line to find the ephemeral port.
  std::printf("READY port=%d\n", server.port());
  std::fflush(stdout);

  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  GDELT_LOG(kInfo, "serve: signal received, draining");
  server.Stop();
  return 0;
}
