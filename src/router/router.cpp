#include "router/router.hpp"

#include <algorithm>
#include <utility>

#include "serve/partial.hpp"
#include "trace/trace.hpp"
#include "util/hash.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace gdelt::router {
namespace {

using Clock = std::chrono::steady_clock;
using serve::ErrorCode;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::int64_t MsUntil(Clock::time_point deadline) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                               Clock::now())
      .count();
}

/// Slack added to the per-shard socket read beyond the request
/// deadline: the backend enforces the same deadline itself and answers
/// with a structured timeout error at it, so the router waits a beat
/// longer to relay that envelope instead of racing it and reporting the
/// shard unavailable.
constexpr std::int64_t kRecvGraceMs = 250;

/// Every router counter, in output order. `metrics` reports each under
/// its name; `metrics_prom` as the counter family gdelt_router_<name>,
/// with `_total` appended unless the name already ends in it.
struct CounterField {
  const char* name;
  std::atomic<std::uint64_t> RouterMetrics::*value;
};
constexpr CounterField kCounters[] = {
    {"requests_total", &RouterMetrics::requests_total},
    {"responses_ok", &RouterMetrics::responses_ok},
    {"relays", &RouterMetrics::relays},
    {"scatters", &RouterMetrics::scatters},
    {"shard_failures", &RouterMetrics::shard_failures},
    {"degraded_responses", &RouterMetrics::degraded_responses},
    {"cancels_sent", &RouterMetrics::cancels_sent},
    {"rejected_overloaded", &RouterMetrics::rejected_overloaded},
    {"bad_requests", &RouterMetrics::bad_requests},
    {"unknown_queries", &RouterMetrics::unknown_queries},
    {"unavailable", &RouterMetrics::unavailable},
    {"connections_opened", &RouterMetrics::connections_opened},
};

/// True when the (already parsed) backend response is an admission
/// rejection — worth retrying on a less loaded replica.
bool IsOverloadedResponse(const serve::JsonValue& response) {
  const serve::JsonValue* ok = response.Find("ok");
  if (ok == nullptr || ok->AsBool(true)) return false;
  const serve::JsonValue* error = response.Find("error");
  if (error == nullptr) return false;
  const serve::JsonValue* code = error->Find("code");
  return code != nullptr && code->AsString() == "overloaded";
}

}  // namespace

Router::Router(const RouterOptions& options)
    : opt_(options),
      pool_(options.topology, [&options] {
        BackendPoolOptions pool_options;
        pool_options.down_after_failures = options.down_after_failures;
        pool_options.max_idle_per_endpoint = options.max_idle_per_endpoint;
        pool_options.connect = options.connect;
        return pool_options;
      }()) {}

Router::~Router() { Stop(); }

Status Router::Start() {
  if (pool_.num_shards() == 0) {
    return status::InvalidArgument("router needs at least one shard");
  }
  GDELT_RETURN_IF_ERROR(front_.Start(
      opt_.host, opt_.port, opt_.max_line_bytes,
      [this](const std::string& line, int) { return HandleLine(line); },
      metrics_.connections_opened, metrics_.bad_requests));
  started_ = true;
  if (opt_.health_interval_ms > 0) {
    health_thread_ = std::thread([this] { HealthLoop(); });
  }
  GDELT_LOG(kInfo,
            StrFormat("router: listening on %s:%d (%zu shards, "
                      "max_inflight=%zu)",
                      opt_.host.c_str(), front_.port(), pool_.num_shards(),
                      opt_.max_inflight));
  return Status::Ok();
}

void Router::Stop() {
  if (stopping_.exchange(true)) return;
  if (!started_) return;

  // Stop accepting, unblock anyone waiting for a scatter slot
  // (AdmitScatter checks stopping_ on wake), let in-flight responses
  // flush, then close the connections.
  front_.Stop([this] { inflight_cv_.NotifyAll(); });

  {
    sync::MutexLock lock(health_stop_mu_);
  }
  health_stop_cv_.NotifyAll();
  if (health_thread_.joinable()) health_thread_.join();

  GDELT_LOG(kInfo,
            StrFormat("router: drained — %llu requests, %llu scattered, "
                      "%llu relayed, %llu degraded",
                      static_cast<unsigned long long>(
                          metrics_.requests_total.load()),
                      static_cast<unsigned long long>(
                          metrics_.scatters.load()),
                      static_cast<unsigned long long>(metrics_.relays.load()),
                      static_cast<unsigned long long>(
                          metrics_.degraded_responses.load())));
}

std::string Router::HandleLine(const std::string& line) {
  const auto received = Clock::now();
  TRACE_SPAN("router.request");
  metrics_.requests_total.fetch_add(1);
  if (stopping_.load()) {
    return serve::ErrorResponse("", ErrorCode::kShuttingDown,
                                "router is shutting down");
  }
  auto parsed = serve::ParseRequest(line);
  if (!parsed.ok()) {
    metrics_.bad_requests.fetch_add(1);
    return serve::ErrorResponse("", ErrorCode::kBadRequest,
                                parsed.status().message());
  }
  const serve::Request& r = *parsed;

  if (r.kind == "ping") {
    return serve::OkJsonResponse(r, "pong", "true");
  }
  if (r.kind == "metrics") {
    return serve::OkJsonResponse(r, "metrics", MetricsJson());
  }
  if (r.kind == "metrics_prom") {
    return serve::OkResponse(r, PrometheusText(), /*cached=*/false,
                             MsSince(received));
  }
  if (r.kind == "ingest") {
    metrics_.bad_requests.fetch_add(1);
    return serve::ErrorResponse(
        r.id, ErrorCode::kBadRequest,
        "router does not accept ingest; send it to the shard backends");
  }
  if (!serve::IsKnownQueryKind(r.kind)) {
    metrics_.unknown_queries.fetch_add(1);
    return serve::ErrorResponse(r.id, ErrorCode::kUnknownQuery,
                                "unknown query '" + r.kind + "'");
  }
  return HandleQuery(r, line, received);
}

std::string Router::HandleQuery(const serve::Request& r,
                                const std::string& line,
                                Clock::time_point received) {
  const std::int64_t timeout_ms =
      r.timeout_ms > 0 ? r.timeout_ms : opt_.default_timeout_ms;
  const auto deadline = received + std::chrono::milliseconds(timeout_ms);
  const std::size_t num_shards = pool_.num_shards();

  // Whole-query relay: single-shard topologies, kinds the registry does
  // not scatter, and partial sub-requests addressed to the router
  // itself. The canonical-key hash pins a (query, options)
  // pair to one backend, keeping that backend's result cache hot.
  if (num_shards == 1 || r.partial || !serve::IsPartialQueryKind(r.kind)) {
    const std::size_t target =
        num_shards == 1
            ? 0
            : static_cast<std::size_t>(Fnv1a64(serve::CanonicalKey(r)) %
                                       num_shards);
    metrics_.relays.fetch_add(1);
    auto response = RelayLine(target, line, deadline);
    if (!response.ok()) {
      metrics_.unavailable.fetch_add(1);
      return serve::ErrorResponse(r.id, ErrorCode::kUnavailable,
                                  "shard " + std::to_string(target) + ": " +
                                      response.status().message());
    }
    metrics_.responses_ok.fetch_add(1);
    return *response + "\n";
  }
  return ScatterGather(r, received, deadline);
}

template <typename MakeLine>
Result<Router::ShardReply> Router::ShardRoundTrip(std::size_t shard,
                                                  MakeLine&& make_line,
                                                  Clock::time_point deadline) {
  const std::uint32_t passes = std::max<std::uint32_t>(1, opt_.scatter_passes);
  Status last_error = status::IoError("never attempted");
  for (std::uint32_t pass = 1; pass <= passes; ++pass) {
    std::int64_t remaining = MsUntil(deadline);
    if (remaining <= 0) {
      return status::IoError("deadline expired (last: " +
                             last_error.message() + ")");
    }
    if (pass > 1) {
      // Brief pause before re-walking the replica list: an overloaded or
      // restarting backend gets a moment to recover.
      const auto nap = std::chrono::milliseconds(
          std::min<std::int64_t>(50 * pass, std::max<std::int64_t>(
                                                1, remaining / 8)));
      std::this_thread::sleep_for(nap);
      remaining = MsUntil(deadline);
      if (remaining <= 0) {
        return status::IoError("deadline expired (last: " +
                               last_error.message() + ")");
      }
    }
    auto lease = pool_.Acquire(shard);
    if (!lease.ok()) {
      last_error = lease.status();
      continue;
    }
    const std::size_t replica = lease->replica;
    (void)lease->client.SetRecvTimeoutMs(remaining + kRecvGraceMs);
    auto response = lease->client.RoundTrip(make_line(remaining));
    if (!response.ok()) {
      pool_.ReportFailure(shard, replica);
      pool_.Release(std::move(*lease), /*reusable=*/false);
      last_error = response.status();
      continue;
    }
    pool_.ReportSuccess(shard, replica);
    pool_.Release(std::move(*lease), /*reusable=*/true);
    ShardReply reply{*std::move(response), {}};
    if (auto parsed = serve::JsonValue::Parse(reply.line);
        parsed.ok() && parsed->is_object()) {
      reply.parsed = *std::move(parsed);
    }
    if (IsOverloadedResponse(reply.parsed)) {
      last_error = status::IoError("replica " + std::to_string(replica) +
                                   " rejected: overloaded");
      continue;
    }
    return reply;
  }
  return last_error;
}

Result<std::string> Router::RelayLine(std::size_t shard,
                                      const std::string& line,
                                      Clock::time_point deadline) {
  auto reply = ShardRoundTrip(
      shard, [&line](std::int64_t) { return line; }, deadline);
  if (!reply.ok()) return reply.status();
  return std::move(reply->line);
}

Result<serve::JsonValue> Router::FetchShardFrame(const serve::Request& r,
                                                 std::uint32_t shard,
                                                 const std::string& scatter_id,
                                                 Clock::time_point deadline) {
  serve::Request sub = r;
  // Every shard of one scatter runs under the same router-chosen id, so a
  // single `cancel` line aborts the whole scatter's in-flight work. The
  // client's id still names the merged response; only the sub-requests
  // are re-keyed.
  sub.id = scatter_id;
  const auto of = static_cast<std::uint32_t>(pool_.num_shards());
  auto reply = ShardRoundTrip(
      static_cast<std::size_t>(shard),
      [&sub, shard, of](std::int64_t remaining) {
        // The sub-request carries the remaining budget so the backend
        // sheds work the router would discard anyway.
        sub.timeout_ms = remaining;
        return serve::BuildShardRequestLine(sub, shard, of);
      },
      deadline);
  if (!reply.ok()) return reply.status();
  serve::JsonValue& parsed = reply->parsed;
  if (!parsed.is_object()) {
    return status::Internal("unparseable backend response");
  }
  const serve::JsonValue* ok = parsed.Find("ok");
  if (ok == nullptr || !ok->AsBool(false)) {
    std::string message = "backend error";
    if (const serve::JsonValue* error = parsed.Find("error")) {
      if (const serve::JsonValue* code = error->Find("code")) {
        message = code->AsString();
      }
      if (const serve::JsonValue* text = error->Find("message")) {
        message += ": " + text->AsString();
      }
    }
    return status::IoError(message);
  }
  serve::JsonValue frame = parsed.Take("partial");
  if (!frame.is_object()) {
    return status::Internal("backend answered without a partial frame");
  }
  return frame;
}

void Router::BroadcastCancel(const std::string& scatter_id) {
  std::string line = "{\"id\":";
  serve::AppendJsonString(line, scatter_id);
  line += ",\"query\":\"cancel\"}";
  const std::size_t num_shards = pool_.num_shards();
  for (std::size_t shard = 0; shard < num_shards; ++shard) {
    auto lease = pool_.Acquire(shard);
    if (!lease.ok()) continue;
    // Short window, one attempt, and no ReportFailure on error: a lost
    // cancel costs some wasted scan time, not correctness, and it must
    // not skew replica health accounting.
    (void)lease->client.SetRecvTimeoutMs(kRecvGraceMs);
    auto response = lease->client.RoundTrip(line);
    pool_.Release(std::move(*lease), /*reusable=*/response.ok());
    if (response.ok()) metrics_.cancels_sent.fetch_add(1);
  }
}

std::string Router::ScatterGather(const serve::Request& r,
                                  Clock::time_point received,
                                  Clock::time_point deadline) {
  TRACE_SPAN("router.scatter");
  const bool batch = serve::IsBatchQueryKind(r.kind);
  if (!AdmitScatter(batch, deadline)) {
    metrics_.rejected_overloaded.fetch_add(1);
    // Backoff hint: roughly when a scatter slot should free up — the
    // observed p50 scatter wall time (50ms until we have samples).
    const auto snap = scatter_latency_.Snap();
    const double p50 = snap.count > 0 ? snap.QuantileMs(0.50) : 50.0;
    const auto retry_after_ms =
        static_cast<std::int64_t>(std::max(p50, 1.0));
    last_retry_after_ms_.store(retry_after_ms);
    return serve::ErrorResponse(
        r.id, ErrorCode::kOverloaded,
        StrFormat("router scatter limit (%zu in flight); retry later",
                  opt_.max_inflight),
        retry_after_ms);
  }
  const std::size_t num_shards = pool_.num_shards();
  const std::string scatter_id =
      "rc-" + std::to_string(scatter_seq_.fetch_add(1) + 1);
  struct Outcome {
    bool ok = false;
    serve::JsonValue frame;
    std::string error;
  };
  std::vector<Outcome> outcomes(num_shards);
  {
    std::vector<std::thread> threads;
    threads.reserve(num_shards);
    for (std::size_t i = 0; i < num_shards; ++i) {
      threads.emplace_back([this, &r, &outcomes, &scatter_id, i, deadline] {
        auto frame = FetchShardFrame(r, static_cast<std::uint32_t>(i),
                                     scatter_id, deadline);
        if (frame.ok()) {
          outcomes[i].ok = true;
          outcomes[i].frame = *std::move(frame);
        } else {
          outcomes[i].error = frame.status().message();
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  ReleaseScatter();
  metrics_.scatters.fetch_add(1);
  scatter_latency_.Record(MsSince(received) / 1e3);
  // A hard-failed shard means this scatter is settled as degraded (or
  // worse) — but backends may still be scanning under its id: a replica
  // the router abandoned mid-round-trip, a sub-request past its
  // deadline. Tell every reachable shard to stop. After the join, so a
  // survivor's frame can never be cancelled out from under the merge;
  // for sub-requests that already finished the verb is an idempotent
  // no-op.
  const bool any_failed = std::any_of(
      outcomes.begin(), outcomes.end(),
      [](const Outcome& outcome) { return !outcome.ok; });
  if (any_failed) BroadcastCancel(scatter_id);

  std::vector<serve::JsonValue> frames;
  std::vector<std::uint32_t> failed;
  std::string first_error;
  for (std::size_t i = 0; i < num_shards; ++i) {
    if (outcomes[i].ok) {
      frames.push_back(std::move(outcomes[i].frame));
    } else {
      failed.push_back(static_cast<std::uint32_t>(i));
      if (first_error.empty()) first_error = outcomes[i].error;
      GDELT_LOG(kWarning, StrFormat("router: %s shard %zu failed: %s",
                                    r.kind.c_str(), i,
                                    outcomes[i].error.c_str()));
    }
  }
  metrics_.shard_failures.fetch_add(failed.size());
  if (frames.empty()) {
    metrics_.unavailable.fetch_add(1);
    return serve::ErrorResponse(r.id, ErrorCode::kUnavailable,
                                "no shard answered: " + first_error);
  }
  auto merged = serve::MergePartialFrames(r, frames);
  if (!merged.ok()) {
    return serve::ErrorResponse(r.id, ErrorCode::kInternal,
                                merged.status().message());
  }
  const double wall_ms = MsSince(received);
  if (failed.empty()) {
    metrics_.responses_ok.fetch_add(1);
    return serve::OkResponse(r, *merged, /*cached=*/false, wall_ms);
  }

  // Degraded: the surviving shards' merge, plus the failed shard list.
  // Same envelope as OkResponse with `"partial_failure"` spliced in
  // before the text so clients can tell an undercount from a full
  // answer.
  metrics_.degraded_responses.fetch_add(1);
  metrics_.responses_ok.fetch_add(1);
  std::string out = "{\"id\":";
  serve::AppendJsonString(out, r.id);
  out += ",\"ok\":true,\"query\":";
  serve::AppendJsonString(out, r.kind);
  out += ",\"cached\":false";
  out += StrFormat(",\"wall_ms\":%.3f", wall_ms);
  out += ",\"partial_failure\":[";
  for (std::size_t i = 0; i < failed.size(); ++i) {
    if (i != 0) out += ",";
    out += std::to_string(failed[i]);
  }
  out += "],\"text\":";
  serve::AppendJsonString(out, *merged);
  out += "}\n";
  return out;
}

bool Router::AdmitScatter(bool batch, Clock::time_point deadline) {
  sync::MutexLock lock(inflight_mu_);
  if (inflight_ < opt_.max_inflight) {
    ++inflight_;
    return true;
  }
  // Two-lane admission, mirroring the backend scheduler: batch kinds
  // shed immediately at the limit, interactive kinds wait a bounded
  // slice for a slot.
  if (batch) return false;
  const auto wait_deadline =
      std::min(deadline, Clock::now() + std::chrono::milliseconds(
                                            opt_.interactive_wait_ms));
  while (inflight_ >= opt_.max_inflight) {
    if (stopping_.load()) return false;
    const auto now = Clock::now();
    if (now >= wait_deadline) return false;
    inflight_cv_.WaitFor(inflight_mu_, wait_deadline - now);
  }
  ++inflight_;
  return true;
}

void Router::ReleaseScatter() {
  {
    sync::MutexLock lock(inflight_mu_);
    --inflight_;
  }
  inflight_cv_.NotifyOne();
}

std::string Router::MetricsJson() {
  std::string out = "{";
  for (const CounterField& c : kCounters) {
    out += StrFormat("\"%s\":%llu,", c.name,
                     static_cast<unsigned long long>(
                         (metrics_.*c.value).load()));
  }
  out += StrFormat("\"retry_after_ms\":%lld,",
                   static_cast<long long>(last_retry_after_ms_.load()));
  out += StrFormat("\"num_shards\":%zu,\"shards\":", pool_.num_shards());
  out += pool_.HealthJson();
  out += "}";
  return out;
}

std::string Router::PrometheusText() {
  std::string out;
  out.reserve(1024);
  for (const CounterField& c : kCounters) {
    std::string family = std::string("gdelt_router_") + c.name;
    if (!family.ends_with("_total")) family += "_total";
    out += StrFormat("# TYPE %s counter\n%s %llu\n", family.c_str(),
                     family.c_str(),
                     static_cast<unsigned long long>(
                         (metrics_.*c.value).load()));
  }
  out += StrFormat(
      "# TYPE gdelt_router_retry_after_ms gauge\n"
      "gdelt_router_retry_after_ms %lld\n",
      static_cast<long long>(last_retry_after_ms_.load()));
  return out;
}

void Router::HealthLoop() {
  sync::MutexLock lock(health_stop_mu_);
  while (!stopping_.load()) {
    health_stop_cv_.WaitFor(
        health_stop_mu_, std::chrono::milliseconds(opt_.health_interval_ms));
    if (stopping_.load()) break;
    pool_.ProbeAll();
  }
}

}  // namespace gdelt::router
