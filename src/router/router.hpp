// Scatter/gather query router over gdelt_serve shard backends.
//
// Speaks the same newline-delimited JSON protocol as gdelt_serve
// (docs/PROTOCOL.md), so existing clients point at the router unchanged.
// Decomposable query kinds are split into per-shard partial-aggregate
// sub-requests (`"partial":true`, serve/partial.hpp), scattered to the
// shard backends under one deadline, and merged into a response whose
// `"text"` is byte-identical to what a single gdelt_serve holding the
// whole database would render. Kinds whose floating-point reductions are
// evaluation-order-sensitive (stats, quarterly, tone) are relayed whole
// to one backend picked by the canonical-key hash, which also keeps
// their per-backend result caches hot.
//
// Robustness: per-shard replica failover with bounded retries, endpoints
// marked down after consecutive failures (BackendPool), a health thread
// that probes `metrics` to revive them and track queue saturation, and
// structured degraded responses — when some shards fail inside the
// deadline the survivors are still merged and the response carries a
// `"partial_failure"` array naming the missing shards.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "router/pool.hpp"
#include "router/topology.hpp"
#include "serve/json.hpp"
#include "serve/line_server.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "util/status.hpp"
#include "util/sync.hpp"

namespace gdelt::router {

struct RouterOptions {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = pick an ephemeral port (read back via port())
  Topology topology;
  std::int64_t default_timeout_ms = 30'000;
  std::size_t max_line_bytes = 1 << 20;

  /// Concurrent scattered queries admitted. Beyond it, batch kinds are
  /// shed immediately and interactive kinds wait a bounded slice for a
  /// slot — the same two-lane posture as the backend scheduler.
  std::size_t max_inflight = 64;
  std::int64_t interactive_wait_ms = 250;

  /// Passes over a shard's replica list before the shard is declared
  /// failed for this request (each pass walks every live replica).
  std::uint32_t scatter_passes = 2;

  std::uint32_t down_after_failures = 3;
  std::size_t max_idle_per_endpoint = 4;
  /// Health probe period; 0 disables the background thread (tests drive
  /// BackendPool::ProbeAll directly).
  int health_interval_ms = 0;
  /// Dial policy for every backend connection (scatter and probe).
  serve::ConnectOptions connect;
};

/// Router-side counters (the backend keeps its own; `metrics` against
/// the router reports these plus per-endpoint pool health).
struct RouterMetrics {
  std::atomic<std::uint64_t> requests_total{0};
  std::atomic<std::uint64_t> responses_ok{0};
  std::atomic<std::uint64_t> relays{0};
  std::atomic<std::uint64_t> scatters{0};
  std::atomic<std::uint64_t> shard_failures{0};
  std::atomic<std::uint64_t> degraded_responses{0};
  /// Best-effort `cancel` verbs sent to surviving shards after a sibling
  /// shard hard-failed — their partial work is doomed (the merge already
  /// lost a shard or the whole scatter died), so stop paying for it.
  std::atomic<std::uint64_t> cancels_sent{0};
  std::atomic<std::uint64_t> rejected_overloaded{0};
  std::atomic<std::uint64_t> bad_requests{0};
  std::atomic<std::uint64_t> unknown_queries{0};
  std::atomic<std::uint64_t> unavailable{0};
  std::atomic<std::uint64_t> connections_opened{0};
};

class Router {
 public:
  explicit Router(const RouterOptions& options);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Binds, listens and starts the accept loop (and the health thread
  /// when configured). Fails on bind errors.
  Status Start();

  /// Stops accepting, lets in-flight requests flush, joins everything.
  /// Idempotent.
  void Stop();

  /// The bound port (valid after Start; useful with ephemeral ports).
  int port() const noexcept { return front_.port(); }

  /// Handles one request line and returns the full response line
  /// (terminating '\n' included) — the protocol minus the socket
  /// framing, exposed so tests can drive it without a network.
  std::string HandleLine(const std::string& line);

  BackendPool& pool() noexcept { return pool_; }
  const RouterMetrics& metrics() const noexcept { return metrics_; }

 private:
  using Clock = std::chrono::steady_clock;

  std::string HandleQuery(const serve::Request& r, const std::string& line,
                          Clock::time_point received);
  std::string ScatterGather(const serve::Request& r,
                            Clock::time_point received,
                            Clock::time_point deadline);

  /// Relays `line` verbatim to a replica of `shard` and returns the raw
  /// response line (no trailing newline).
  Result<std::string> RelayLine(std::size_t shard, const std::string& line,
                                Clock::time_point deadline);

  /// Fetches partition `shard` of `r` from the owning backend and
  /// returns the parsed `"partial"` frame. The sub-request is sent under
  /// `scatter_id` (one id per scatter, shared by every shard) so a later
  /// `cancel` verb can address the whole scatter's in-flight work.
  Result<serve::JsonValue> FetchShardFrame(const serve::Request& r,
                                           std::uint32_t shard,
                                           const std::string& scatter_id,
                                           Clock::time_point deadline);

  /// Best-effort: sends `{"query":"cancel","id":scatter_id}` to one
  /// replica of every shard (down replicas are skipped by the pool).
  /// Called after the gather joins when some shard hard-failed: any
  /// backend still scanning under this scatter's id — a replica the
  /// router abandoned mid-round-trip, a deadline-expired sub-request —
  /// is working for nobody. Never retries, never blocks beyond a short
  /// receive window, never touches replica health accounting.
  void BroadcastCancel(const std::string& scatter_id);

  /// One deadline-bounded round-trip against a replica of `shard`,
  /// retried across replicas/passes. `make_line` rebuilds the request
  /// line from the remaining budget so the backend enforces the same
  /// deadline. Backend `overloaded` rejections are retried (another
  /// replica may have queue room); other backend errors are final.
  template <typename MakeLine>
  Result<std::string> ShardRoundTrip(std::size_t shard, MakeLine&& make_line,
                                     Clock::time_point deadline);

  bool AdmitScatter(bool batch, Clock::time_point deadline);
  void ReleaseScatter();

  std::string MetricsJson();
  std::string PrometheusText();

  void HealthLoop();

  const RouterOptions opt_;
  BackendPool pool_;
  RouterMetrics metrics_;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};

  std::thread health_thread_;
  sync::Mutex health_stop_mu_;
  sync::CondVar health_stop_cv_;

  sync::Mutex inflight_mu_;
  sync::CondVar inflight_cv_;
  std::size_t inflight_ GDELT_GUARDED_BY(inflight_mu_) = 0;

  /// Monotonic scatter ids ("rc-<n>") addressing in-flight sub-requests.
  std::atomic<std::uint64_t> scatter_seq_{0};
  /// Scatter wall-time histogram feeding the shed-path retry_after_ms.
  serve::LatencyHistogram scatter_latency_;
  std::atomic<std::int64_t> last_retry_after_ms_{0};

  /// Declared last so it is destroyed first: its connection threads call
  /// back into every member above.
  serve::LineServer front_;
};

}  // namespace gdelt::router
