// Wire protocol of gdelt_serve (docs/PROTOCOL.md).
//
// Newline-delimited JSON over TCP: the client sends one flat JSON object
// per line, the server answers with exactly one JSON object line per
// request, in order. Requests are parsed strictly — unknown keys, bad
// types and malformed timestamps are rejected with a structured
// `bad_request` error instead of being guessed at — and every request is
// reduced to a canonical text form that keys the server's result cache.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "engine/filter.hpp"
#include "util/status.hpp"

namespace gdelt::serve {

/// Structured protocol error codes (the `error.code` response field).
enum class ErrorCode {
  kBadRequest,    ///< malformed JSON / unknown key / bad value
  kUnknownQuery,  ///< well-formed request for a query kind we don't have
  kOverloaded,    ///< admission control rejected: request queue full
  kTimeout,       ///< per-request deadline expired
  kShuttingDown,  ///< server is draining after SIGTERM
  kInternal,      ///< dispatcher failure (bug)
  kUnavailable,   ///< router: no healthy replica answered for a shard
  kCancelled,     ///< cooperatively cancelled (disconnect / cancel verb)
};

std::string_view ErrorCodeName(ErrorCode code) noexcept;

/// A parsed, validated client request.
struct Request {
  std::string id;    ///< client correlation id, echoed back (may be empty)
  std::string kind;  ///< query name, or "metrics" | "ping" | "ingest" |
                     ///< "cancel" (cancel requires a non-empty id naming
                     ///< the in-flight request to abort)

  // query options (mirror the gdelt_query CLI flags)
  std::size_t top_k = 10;
  std::string from;        ///< raw YYYYMMDDHHMMSS lower bound ("" = open)
  std::string to;          ///< raw YYYYMMDDHHMMSS upper bound ("" = open)
  int min_confidence = 0;

  std::int64_t timeout_ms = 0;      ///< 0 = server default
  std::int64_t debug_sleep_ms = 0;  ///< testing aid: stall the worker
  bool trace = false;               ///< return per-stage timings inline

  /// Server-side only (never parsed): the deadline actually enforced
  /// after clamping `timeout_ms` to the server's --max-timeout-ms.
  /// Echoed as `"deadline_ms"` in ok responses when > 0.
  std::int64_t effective_timeout_ms = 0;

  // partial-aggregate execution (router scatter; docs/PROTOCOL.md).
  // When `partial` is set the backend computes only the partition
  // `shard` of `of` and answers with a versioned partial-result frame
  // instead of rendered text.
  bool partial = false;
  std::uint32_t shard = 0;
  std::uint32_t of = 1;

  // ingest options
  std::string export_path;
  std::string mentions_path;

  // derived from from/to/min_confidence during parsing
  engine::MentionFilter filter;
  bool restricted = false;

  /// True for kinds answered from the database (dispatchable, cacheable).
  bool IsQuery() const noexcept;
};

// Lookups in the query-kind registry (serve/partial.hpp, QueryKinds()).

/// True if `kind` names one of the dispatchable query kinds.
bool IsKnownQueryKind(std::string_view kind) noexcept;

/// True for the kinds the scheduler runs on the batch lane.
bool IsBatchQueryKind(std::string_view kind) noexcept;

/// True for the kinds the router scatters over its shards as
/// `"partial":true` requests (QueryKindSpec::scatter); it relays the
/// others whole. Every kind answers a partial request.
bool IsPartialQueryKind(std::string_view kind) noexcept;

/// Parses one request line (strict; see file comment).
Result<Request> ParseRequest(std::string_view line);

/// Canonical cache-key text: normalized fields in a fixed order, so two
/// requests that differ only in JSON member order / whitespace / defaults
/// spelled out share a cache entry.
std::string CanonicalKey(const Request& r);

/// One measured stage of a traced request (`"trace": true`). Stages are
/// disjoint, so their sum approximates the reported wall time.
struct StageTiming {
  std::string name;
  double ms = 0;
};

/// One captured span of a traced request: the kernel-level breakdown
/// nested inside the stages (spans overlap; they do not sum to the wall).
struct SpanTiming {
  std::string name;
  double ms = 0;
  int depth = 0;
};

/// Builds one successful query response line (terminating '\n' included).
/// For `r.partial` requests `text` is a pre-rendered partial-result frame
/// and is spliced in unquoted under `"partial"` instead of `"text"`.
std::string OkResponse(const Request& r, std::string_view text, bool cached,
                       double wall_ms);

/// Same, with a `"trace":{"stages":[...],"spans":[...]}` breakdown
/// spliced in (omitted entirely when `stages` is empty).
std::string OkResponse(const Request& r, std::string_view text, bool cached,
                       double wall_ms, const std::vector<StageTiming>& stages,
                       const std::vector<SpanTiming>& spans);

/// Builds an ok response whose payload is a pre-rendered JSON value
/// spliced in unquoted under `field` (used for `metrics`).
std::string OkJsonResponse(const Request& r, std::string_view field,
                           std::string_view payload_json);

/// Builds one error response line (terminating '\n' included).
std::string ErrorResponse(std::string_view id, ErrorCode code,
                          std::string_view message);

/// Same, with a client backoff hint: `"retry_after_ms"` inside the error
/// object (emitted when > 0). Sent on overload rejections/sheds, sized
/// from queue depth x observed p50 execution time (docs/PROTOCOL.md).
std::string ErrorResponse(std::string_view id, ErrorCode code,
                          std::string_view message,
                          std::int64_t retry_after_ms);

}  // namespace gdelt::serve
