// Long-lived query service over a loaded database.
//
// `Server` owns the request path of the gdelt_serve daemon: a TCP accept
// loop speaking the newline-delimited JSON protocol (docs/PROTOCOL.md),
// thread-per-connection framing, an admission-controlled worker pool that
// runs the shared query renderer, an epoch-keyed LRU result cache, and
// the metrics surface. The database is loaded once by the caller and
// shared read-only across all workers — the whole point of serving: pay
// the mmap + index cost once, answer every query after that at memory
// speed.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/database.hpp"
#include "serve/cache.hpp"
#include "serve/line_server.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/scheduler.hpp"
#include "stream/delta_store.hpp"
#include "util/cancel.hpp"
#include "util/status.hpp"
#include "util/sync.hpp"

namespace gdelt::serve {

struct ServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = pick an ephemeral port (read back via port())
  Scheduler::Options scheduler;
  std::size_t cache_entries = 1024;      ///< 0 disables the result cache
  std::int64_t default_timeout_ms = 30'000;
  /// Ceiling for client-supplied `timeout_ms` (and the default). The
  /// effective, clamped deadline is echoed back as `"deadline_ms"`.
  std::int64_t max_timeout_ms = 300'000;
  /// Cooperative cancellation: per-request CancelToken threaded into the
  /// kernels, deadline enforced mid-scan, disconnects and `cancel` verbs
  /// abort in-flight work. Off = the pre-cancellation behavior (deadline
  /// checked only between requests) — the bench_serve_throughput A/B.
  bool cancellation = true;
  int metrics_log_interval_s = 0;        ///< 0 disables the periodic log line
  std::size_t max_line_bytes = 1 << 20;  ///< request line length cap
  std::int64_t slow_query_ms = 0;  ///< log queries slower than this; 0 = off
  std::string trace_dir;  ///< Chrome trace dump directory on Stop; "" = off
};

class Server {
 public:
  /// `db` must outlive the server. `delta` may be null (no ingest support);
  /// when given it supplies the cache epoch and the `ingest` request, and
  /// must also outlive the server — Stop() still reads it for the final
  /// drain summary.
  Server(const engine::Database& db, stream::DeltaStore* delta,
         const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and starts the accept loop. Fails on bind errors.
  Status Start();

  /// Graceful drain: stop admitting, finish every in-flight and queued
  /// request, flush responses, then tear down connections. Idempotent.
  void Stop();

  /// The bound port (valid after Start; useful with ephemeral ports).
  int port() const noexcept { return front_.port(); }

  /// Current cache epoch (the delta store's ingest generation, 0 if none).
  std::uint64_t Epoch() const noexcept {
    return delta_ ? delta_->Generation() : 0;
  }

  /// Handles one request line and returns the full response line
  /// (terminating '\n' included). This is the whole protocol minus the
  /// socket framing — exposed so tests can drive it without a network.
  ///
  /// `client_fd` (optional) is the connection's socket: while the request
  /// is queued or executing, the fd is polled for hangup and an orphaned
  /// request is cancelled instead of scanning for a client that left.
  /// -1 (the default, and what tests use) disables disconnect detection.
  std::string HandleLine(const std::string& line, int client_fd = -1);

  const ServerMetrics& metrics() const noexcept { return metrics_; }
  ServerMetrics::Gauges GaugesNow() const;

 private:
  std::string HandleQuery(Request request,
                          std::chrono::steady_clock::time_point received,
                          double parse_ms, int client_fd);
  std::string HandleCancel(const Request& request);
  std::string HandleIngest(const Request& request);
  /// Backoff hint for shed work: queue depth x observed p50 execution
  /// time, floored at one execution slot. Records the hint gauge.
  std::int64_t RetryAfterMsNow();
  void MetricsLogLoop();

  const engine::Database& db_;
  stream::DeltaStore* delta_;  ///< may be null
  ServerOptions opt_;

  Scheduler scheduler_;
  ResultCache cache_;
  ServerMetrics metrics_;

  std::atomic<bool> stopping_{false};
  // Atomic because GaugesNow() reads it from connection threads while the
  // main thread may still be inside Start()/Stop().
  std::atomic<bool> started_{false};
  std::chrono::steady_clock::time_point start_time_;

  std::thread log_thread_;
  sync::Mutex log_stop_mu_;
  sync::CondVar log_stop_cv_;

  // --- cooperative cancellation state ---
  /// In-flight requests addressable by a `cancel` verb, keyed by the
  /// client-chosen request id. Entries are registered before Submit and
  /// unregistered (by matching token, so a reused id never erases a
  /// newer request) when the response is ready.
  sync::Mutex cancel_mu_;
  std::unordered_map<std::string, std::shared_ptr<util::CancelToken>>
      inflight_ GDELT_GUARDED_BY(cancel_mu_);
  /// Execution-time histogram (misses only, not cache hits) feeding the
  /// p50 behind retry_after_ms.
  LatencyHistogram exec_latency_;
  std::atomic<std::int64_t> last_retry_after_ms_{0};

  /// Serializes ingest requests (the DeltaStore additionally guards its
  /// own state; this keeps fetch+apply of one request an atomic unit).
  sync::Mutex ingest_mu_;
  // Ingest health for the metrics surface: generation after the last
  // successful ingest and when it happened (ms since start_; -1 = never).
  std::atomic<std::uint64_t> last_ingest_generation_{0};
  std::atomic<std::int64_t> last_ingest_ms_{-1};

  /// Declared last so it is destroyed first: its connection threads call
  /// back into every member above.
  LineServer front_;
};

}  // namespace gdelt::serve
