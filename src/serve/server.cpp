#include "serve/server.hpp"

#include <poll.h>

#include <algorithm>
#include <future>
#include <memory>
#include <optional>

#include "serve/prom.hpp"
#include "serve/render.hpp"
#include "trace/trace.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace gdelt::serve {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// True once the peer has hung up (or the socket errored): the request
/// this connection is waiting on has no reader left.
bool PeerGone(int fd) {
  if (fd < 0) return false;
#ifdef POLLRDHUP
  pollfd pfd{fd, POLLRDHUP, 0};
#else
  pollfd pfd{fd, 0, 0};
#endif
  if (::poll(&pfd, 1, /*timeout_ms=*/0) <= 0) return false;
  return (pfd.revents & (POLLHUP | POLLERR
#ifdef POLLRDHUP
                         | POLLRDHUP
#endif
                         )) != 0;
}

/// Token-polling sleep for `debug_sleep_ms`: stalls in short slices so a
/// deadline or cancel landing mid-stall aborts within ~one slice, the
/// same cadence a real kernel polls at morsel granularity.
void CancellableSleep(std::int64_t ms, const util::CancelToken* cancel) {
  constexpr std::int64_t kSliceMs = 100;
  const auto until = Clock::now() + std::chrono::milliseconds(ms);
  while (!util::Cancelled(cancel)) {
    const auto now = Clock::now();
    if (now >= until) return;
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(until - now)
            .count();
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::min<std::int64_t>(left, kSliceMs)));
  }
}

/// Counts one interactive query in progress for its lifetime; a batch
/// query counts nothing.
class InteractiveInProgress {
 public:
  InteractiveInProgress(std::atomic<std::uint32_t>& count, bool interactive)
      : count_(interactive ? &count : nullptr) {
    if (count_ != nullptr) count_->fetch_add(1, std::memory_order_relaxed);
  }
  ~InteractiveInProgress() {
    if (count_ != nullptr) count_->fetch_sub(1, std::memory_order_relaxed);
  }
  InteractiveInProgress(const InteractiveInProgress&) = delete;
  InteractiveInProgress& operator=(const InteractiveInProgress&) = delete;

 private:
  std::atomic<std::uint32_t>* count_;
};

}  // namespace

Server::Server(const engine::Database& db, stream::DeltaStore* delta,
               const ServerOptions& options)
    : db_(db),
      delta_(delta),
      opt_(options),
      scheduler_(options.scheduler),
      cache_(options.cache_entries) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  start_time_ = Clock::now();
  GDELT_RETURN_IF_ERROR(front_.Start(
      opt_.host, opt_.port, opt_.max_line_bytes,
      [this](const std::string& line, int fd) { return HandleLine(line, fd); },
      metrics_.connections_opened, metrics_.bad_requests));
  started_ = true;
  if (opt_.metrics_log_interval_s > 0) {
    log_thread_ = std::thread([this] { MetricsLogLoop(); });
  }
  GDELT_LOG(kInfo, StrFormat("serve: listening on %s:%d (workers=%d "
                             "pool_workers=%zu queue=%zu cache=%zu)",
                             opt_.host.c_str(), front_.port(),
                             scheduler_.workers(),
                             parallel::MorselPool::Shared().num_workers(),
                             scheduler_.queue_capacity(), opt_.cache_entries));
  return Status::Ok();
}

void Server::Stop() {
  if (stopping_.exchange(true)) return;
  if (!started_) return;

  // Stop accepting, run every admitted request to completion (workers
  // join after), let replies flush, then close the connections.
  front_.Stop([this] { scheduler_.Drain(); });

  {
    sync::MutexLock lock(log_stop_mu_);
  }
  log_stop_cv_.NotifyAll();
  if (log_thread_.joinable()) log_thread_.join();

  if (!opt_.trace_dir.empty()) {
    const std::string path = opt_.trace_dir + "/serve_trace.json";
    const Status written = trace::WriteChromeTrace(path);
    if (written.ok()) {
      GDELT_LOG(kInfo, "serve: wrote trace to " + path);
    } else {
      GDELT_LOG(kWarning, "serve: trace dump failed: " + written.message());
    }
  }

  GDELT_LOG(kInfo, "serve: drained — " + metrics_.Summary(GaugesNow()));
}

ServerMetrics::Gauges Server::GaugesNow() const {
  ServerMetrics::Gauges g;
  g.queue_depth = scheduler_.QueueDepth();
  g.queue_capacity = scheduler_.queue_capacity();
  g.workers = scheduler_.workers();
  g.pool_workers = parallel::MorselPool::Shared().num_workers();
  g.epoch = Epoch();
  g.cache_entries = cache_.entries();
  g.cache_text_bytes = cache_.text_bytes();
  g.cache_evicted_stale = cache_.evicted_stale();
  g.uptime_s = started_ ? std::chrono::duration<double>(Clock::now() -
                                                        start_time_)
                              .count()
                        : 0.0;
  if (delta_) {
    const auto fetch = delta_->fetch_stats();
    g.ingest_retries = fetch.retries;
    g.ingest_quarantined = fetch.quarantined;
  }
  g.morsels_skipped = parallel::MorselPool::Shared().stats().morsels_skipped;
  g.retry_after_ms = last_retry_after_ms_.load();
  g.last_ingest_generation = last_ingest_generation_.load();
  const std::int64_t last_ms = last_ingest_ms_.load();
  g.last_ingest_age_s = last_ms < 0 ? -1.0
                                    : g.uptime_s - static_cast<double>(
                                                       last_ms) /
                                                       1e3;
  return g;
}

std::string Server::HandleLine(const std::string& line, int client_fd) {
  const auto received = Clock::now();
  TRACE_SPAN("serve.request");
  metrics_.requests_total.fetch_add(1);
  if (stopping_.load()) {
    return ErrorResponse("", ErrorCode::kShuttingDown,
                         "server is shutting down");
  }
  auto parsed = ParseRequest(line);
  const double parse_ms = MsSince(received);
  if (!parsed.ok()) {
    metrics_.bad_requests.fetch_add(1);
    return ErrorResponse("", ErrorCode::kBadRequest,
                         parsed.status().message());
  }
  const Request& r = *parsed;

  if (r.kind == "ping") {
    return OkJsonResponse(r, "pong", "true");
  }
  if (r.kind == "metrics") {
    return OkJsonResponse(r, "metrics", metrics_.ToJson(GaugesNow()));
  }
  if (r.kind == "metrics_prom") {
    // Prometheus exposition text travels in the standard text envelope;
    // a scraper sidecar unwraps the one JSON field.
    return OkResponse(r,
                      PrometheusText(metrics_, GaugesNow(),
                                     trace::Aggregates()),
                      /*cached=*/false, MsSince(received));
  }
  if (r.kind == "ingest") {
    return HandleIngest(r);
  }
  if (r.kind == "cancel") {
    // Handled inline on the connection thread — a cancel must never sit
    // in the queue behind the very work it is trying to abort.
    return HandleCancel(r);
  }
  if (!IsKnownQueryKind(r.kind)) {
    metrics_.unknown_queries.fetch_add(1);
    return ErrorResponse(r.id, ErrorCode::kUnknownQuery,
                         "unknown query '" + r.kind + "'");
  }
  return HandleQuery(r, received, parse_ms, client_fd);
}

std::string Server::HandleCancel(const Request& request) {
  std::shared_ptr<util::CancelToken> token;
  {
    sync::MutexLock lock(cancel_mu_);
    const auto it = inflight_.find(request.id);
    if (it != inflight_.end()) token = it->second;
  }
  if (token == nullptr) {
    // Already finished (or never seen) — cancellation is best-effort and
    // idempotent, so this is a normal answer, not an error.
    return OkJsonResponse(request, "cancelled", "false");
  }
  token->Cancel(util::CancelReason::kRouter);
  return OkJsonResponse(request, "cancelled", "true");
}

std::int64_t Server::RetryAfterMsNow() {
  const auto snap = exec_latency_.Snap();
  // No completions yet: assume a modest slot cost instead of handing out
  // a zero hint that would invite an immediate, equally doomed retry.
  const double p50_ms = snap.count > 0 ? snap.QuantileMs(0.50) : 25.0;
  const auto depth = static_cast<double>(scheduler_.QueueDepth() + 1);
  const auto hint = static_cast<std::int64_t>(depth * std::max(p50_ms, 1.0));
  last_retry_after_ms_.store(hint);
  return hint;
}

std::string Server::HandleQuery(Request request, Clock::time_point received,
                                double parse_ms, int client_fd) {
  const parallel::Priority lane = IsBatchQueryKind(request.kind)
                                      ? parallel::Priority::kBatch
                                      : parallel::Priority::kInteractive;
  // From here to the reply (cache hits included) an interactive query is
  // in progress, and the loops of batch tasks run on their own thread.
  const InteractiveInProgress in_progress(
      interactive_in_progress_, lane == parallel::Priority::kInteractive);
  // Clamp the requested budget to the server's ceiling; the effective
  // value is what the deadline below enforces and what the response
  // envelope echoes as "deadline_ms".
  const std::int64_t timeout_ms = std::min(
      request.timeout_ms > 0 ? request.timeout_ms : opt_.default_timeout_ms,
      opt_.max_timeout_ms);
  request.effective_timeout_ms = timeout_ms;
  const auto deadline = received + std::chrono::milliseconds(timeout_ms);

  const std::uint64_t epoch = Epoch();
  const std::string key = CanonicalKey(request);
  const auto lookup_start = Clock::now();
  auto cached_hit = cache_.GetTagged(key, epoch);
  const double lookup_ms = MsSince(lookup_start);
  if (cached_hit) {
    metrics_.cache_hits.fetch_add(1);
    if (cached_hit->late) {
      // This exact result once cost a client its deadline; the cache
      // turned that sunk scan into a hit.
      metrics_.timeouts_salvaged_by_cache.fetch_add(1);
    }
    metrics_.responses_ok.fetch_add(1);
    metrics_.RecordLatency(request.kind,
                           MsSince(received) / 1e3);
    std::vector<StageTiming> stages;
    if (request.trace) {
      stages = {{"parse", parse_ms}, {"cache_lookup", lookup_ms}};
    }
    return OkResponse(request, *cached_hit->text, /*cached=*/true,
                      MsSince(received), stages, {});
  }
  metrics_.cache_misses.fetch_add(1);

  // One token per admitted request: armed with the deadline at dequeue,
  // cancellable by the client hanging up or a `cancel` verb meanwhile.
  const auto token = std::make_shared<util::CancelToken>();
  if (!request.id.empty()) {
    sync::MutexLock lock(cancel_mu_);
    inflight_[request.id] = token;
  }
  // Deregister on every exit path (matching by token so a reused id
  // belonging to a newer in-flight request is left alone).
  const auto deregister = [this, &request, &token] {
    if (request.id.empty()) return;
    sync::MutexLock lock(cancel_mu_);
    const auto it = inflight_.find(request.id);
    if (it != inflight_.end() && it->second == token) inflight_.erase(it);
  };

  auto promise = std::make_shared<std::promise<std::string>>();
  auto future = promise->get_future();
  const auto submitted = Clock::now();
  const bool admitted = scheduler_.Submit([this, request, key, epoch,
                                           received, deadline, submitted,
                                           parse_ms, lookup_ms, promise,
                                           token] {
    // The queue wait straddles two threads: enqueued on the connection
    // thread, measured here at dequeue on the worker.
    const auto dequeued = Clock::now();
    const double queue_wait_ms =
        std::chrono::duration<double, std::milli>(dequeued - submitted)
            .count();
    trace::RecordManual("serve.queue_wait", submitted, dequeued);
    // Deadline check at dequeue: a request that sat in the queue past its
    // deadline is answered without burning a scan on it. The shed client
    // gets the same backoff hint as an admission rejection.
    if (Clock::now() >= deadline) {
      metrics_.timeouts.fetch_add(1);
      promise->set_value(ErrorResponse(request.id, ErrorCode::kTimeout,
                                       "deadline expired in queue",
                                       RetryAfterMsNow()));
      return;
    }
    // A queued cancel (disconnect or verb) also sheds before the scan.
    if (token->Poll()) {
      const bool disconnect =
          token->reason() == util::CancelReason::kDisconnect;
      (disconnect ? metrics_.cancelled_disconnect : metrics_.cancelled_router)
          .fetch_add(1);
      promise->set_value(ErrorResponse(request.id, ErrorCode::kCancelled,
                                       disconnect
                                           ? "client disconnected in queue"
                                           : "cancelled in queue"));
      return;
    }
    // Arm the deadline now that execution begins: from here on the token
    // trips inside the kernels at morsel granularity, so a 100ms budget
    // aborts a multi-second scan within ~one morsel of the deadline.
    token->ArmDeadline(deadline);
    // A batch task's loops yield the pool while interactive queries are
    // in progress (interactive tasks' loops ignore this).
    const parallel::ScopedYieldToInteractive yield(interactive_in_progress_);
    // A traced request gets a thread-local collector: every span the
    // kernels finish on this thread lands in the response, even with
    // global tracing off.
    std::optional<trace::Collector> collector;
    if (request.trace) collector.emplace();
    const auto exec_start = Clock::now();
    Result<RenderedQuery> rendered = status::Internal("not rendered");
    // The epoch captured at request entry only served the cache lookup.
    // The data this render actually executes against is whatever is
    // published when execution starts, which may be generations newer if
    // ingests landed while the request sat in the queue (or stalled in
    // the debug sleep). Pin the snapshot here and key the Put with *its*
    // generation, so a result rendered from generation G+1 can never be
    // cached — or served to a concurrent reader — under epoch G.
    std::uint64_t render_epoch = epoch;
    std::shared_ptr<const stream::DeltaSnapshot> snap;
    {
      TRACE_SPAN("serve.execute");
      if (request.debug_sleep_ms > 0) {
        CancellableSleep(request.debug_sleep_ms, token.get());
      }
      if (!token->Poll()) {
        if (delta_ != nullptr) {
          snap = delta_->Acquire();
          render_epoch = snap->generation();
        }
        rendered = RenderQuery(db_, request, token.get());
      } else {
        rendered = status::Cancelled("cancelled before execution");
      }
    }
    const double execute_ms = MsSince(exec_start);
    exec_latency_.Record(execute_ms / 1e3);
    if (!rendered.ok()) {
      if (rendered.status().code() == StatusCode::kCancelled) {
        // Nothing cancelled is ever cached: the kernels bailed mid-scan
        // and the discarded partial text must not poison the cache.
        switch (token->reason()) {
          case util::CancelReason::kDeadline:
            metrics_.timeouts.fetch_add(1);
            metrics_.cancelled_deadline.fetch_add(1);
            promise->set_value(
                ErrorResponse(request.id, ErrorCode::kTimeout,
                              "deadline expired during execution "
                              "(cancelled mid-scan)",
                              RetryAfterMsNow()));
            return;
          case util::CancelReason::kDisconnect:
            metrics_.cancelled_disconnect.fetch_add(1);
            promise->set_value(ErrorResponse(request.id, ErrorCode::kCancelled,
                                             "client disconnected"));
            return;
          case util::CancelReason::kRouter:
          case util::CancelReason::kNone:
            metrics_.cancelled_router.fetch_add(1);
            promise->set_value(ErrorResponse(request.id, ErrorCode::kCancelled,
                                             "cancelled by request"));
            return;
        }
      }
      metrics_.internal_errors.fetch_add(1);
      promise->set_value(ErrorResponse(request.id, ErrorCode::kInternal,
                                       rendered.status().message()));
      return;
    }
    if (!rendered->note.empty()) GDELT_LOG(kDebug, rendered->note);
    // The render passed RenderQuery's final token check, but the
    // deadline may still have passed since — e.g. while the debug log
    // line above waited on a blocked stderr. The text is complete and
    // correct, so cache it tagged late: the scan is already paid for,
    // and a retry of the same canonical key turns this timeout into a
    // salvaged hit.
    const bool late = Clock::now() >= deadline;
    const auto put_start = Clock::now();
    cache_.Put(key, render_epoch, rendered->text, late);
    const double cache_put_ms = MsSince(put_start);
    if (late) {
      metrics_.timeouts.fetch_add(1);
      promise->set_value(ErrorResponse(request.id, ErrorCode::kTimeout,
                                       "deadline expired during execution"));
      return;
    }
    metrics_.responses_ok.fetch_add(1);
    const double wall_ms = MsSince(received);
    metrics_.RecordLatency(request.kind, wall_ms / 1e3);
    if (opt_.slow_query_ms > 0 && wall_ms >= static_cast<double>(
                                                 opt_.slow_query_ms)) {
      GDELT_LOG(kWarning,
                StrFormat("serve: slow query kind=%s wall_ms=%.1f "
                          "parse=%.2f cache_lookup=%.2f queue_wait=%.2f "
                          "execute=%.2f cache_put=%.2f",
                          request.kind.c_str(), wall_ms, parse_ms, lookup_ms,
                          queue_wait_ms, execute_ms, cache_put_ms));
    }
    std::vector<StageTiming> stages;
    std::vector<SpanTiming> spans;
    if (request.trace) {
      stages = {{"parse", parse_ms},
                {"cache_lookup", lookup_ms},
                {"queue_wait", queue_wait_ms},
                {"execute", execute_ms},
                {"cache_put", cache_put_ms}};
      for (const trace::SpanRecord& s : collector->spans()) {
        spans.push_back({s.name, static_cast<double>(s.dur_us) / 1e3,
                         static_cast<int>(s.depth)});
      }
    }
    promise->set_value(OkResponse(request, rendered->text, /*cached=*/false,
                                  wall_ms, stages, spans));
  },
                                          lane);
  if (!admitted) {
    deregister();
    metrics_.rejected_overloaded.fetch_add(1);
    return ErrorResponse(
        request.id, ErrorCode::kOverloaded,
        StrFormat("request queue full (%zu pending); retry later",
                  scheduler_.queue_capacity()),
        RetryAfterMsNow());
  }
  // Every admitted task runs (even during drain), so this wait is bounded
  // by queue depth * per-query time; the worker enforces the deadline.
  // With a live socket attached, watch it while waiting: a client that
  // hangs up mid-queue or mid-scan has its work cancelled instead of
  // burning a scan nobody will read.
  if (client_fd >= 0) {
    while (future.wait_for(std::chrono::milliseconds(20)) !=
           std::future_status::ready) {
      if (PeerGone(client_fd)) {
        token->Cancel(util::CancelReason::kDisconnect);
        break;
      }
    }
  }
  std::string response = future.get();
  deregister();
  return response;
}

std::string Server::HandleIngest(const Request& request) {
  if (delta_ == nullptr) {
    return ErrorResponse(request.id, ErrorCode::kBadRequest,
                         "server was started without a delta store "
                         "(--follow); ingest is unavailable");
  }
  Status status = Status::Ok();
  {
    // One ingest at a time; the DeltaStore's own mutex protects its state
    // against concurrent queries, which keep running against the
    // pre-ingest snapshot meanwhile.
    sync::MutexLock lock(ingest_mu_);
    status = delta_->IngestArchivePair(request.export_path,
                                       request.mentions_path);
  }
  if (!status.ok()) {
    metrics_.ingest_failures.fetch_add(1);
    return ErrorResponse(request.id, ErrorCode::kBadRequest,
                         status.message());
  }
  metrics_.ingests.fetch_add(1);
  // One snapshot for every post-ingest fact: the generation the cache
  // observes, the one the status page reports, the delta counts in the
  // log line, and the epoch echoed to the client all come from the same
  // publication. Separate convenience-accessor calls would each acquire
  // their own snapshot and could straddle a concurrent ingest tick.
  const auto snap = delta_->Acquire();
  // Eagerly collect entries stranded under the previous epoch so the
  // cache's entries()/text_bytes() reflect servable data immediately,
  // not whenever a same-key lookup happens to land.
  cache_.ObserveEpoch(snap->generation());
  last_ingest_generation_.store(snap->generation());
  last_ingest_ms_.store(static_cast<std::int64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                            start_time_)
          .count()));
  GDELT_LOG(kInfo, StrFormat("serve: ingest ok — epoch=%llu delta_events=%llu "
                             "delta_mentions=%llu",
                             static_cast<unsigned long long>(
                                 snap->generation()),
                             static_cast<unsigned long long>(
                                 snap->delta_events()),
                             static_cast<unsigned long long>(
                                 snap->delta_mentions())));
  return OkJsonResponse(request, "epoch",
                        std::to_string(snap->generation()));
}

void Server::MetricsLogLoop() {
  sync::MutexLock lock(log_stop_mu_);
  while (!stopping_.load()) {
    log_stop_cv_.WaitFor(log_stop_mu_,
                         std::chrono::seconds(opt_.metrics_log_interval_s));
    if (stopping_.load()) break;
    GDELT_LOG(kInfo, "serve: " + metrics_.Summary(GaugesNow()));
  }
}

}  // namespace gdelt::serve
