#include "serve/protocol.hpp"

#include <cmath>

#include "gtime/timestamp.hpp"
#include "serve/json.hpp"
#include "serve/partial.hpp"
#include "util/strings.hpp"

namespace gdelt::serve {
namespace {

/// Extracts a non-negative integer member with range validation.
Status TakeInt(const JsonValue& v, std::string_view key, std::int64_t max,
               std::int64_t& out) {
  if (!v.is_number()) {
    return status::InvalidArgument("'" + std::string(key) +
                                   "' must be a number");
  }
  const double d = v.AsNumber();
  if (d < 0 || d > static_cast<double>(max) || d != std::floor(d)) {
    return status::InvalidArgument("'" + std::string(key) +
                                   "' out of range");
  }
  out = static_cast<std::int64_t>(d);
  return Status::Ok();
}

Status TakeString(const JsonValue& v, std::string_view key,
                  std::string& out) {
  if (!v.is_string()) {
    return status::InvalidArgument("'" + std::string(key) +
                                   "' must be a string");
  }
  out = v.AsString();
  return Status::Ok();
}

/// Parses a YYYYMMDDHHMMSS bound into a capture interval.
Status TakeBound(const std::string& raw, std::string_view key,
                 std::int64_t& interval) {
  const auto t = ParseGdeltTimestamp(raw);
  if (!t.ok()) {
    return status::InvalidArgument("bad '" + std::string(key) +
                                   "' timestamp: " + t.status().message());
  }
  interval = IntervalOfCivil(t.value());
  return Status::Ok();
}

}  // namespace

std::string_view ErrorCodeName(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kBadRequest: return "bad_request";
    case ErrorCode::kUnknownQuery: return "unknown_query";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kTimeout: return "timeout";
    case ErrorCode::kShuttingDown: return "shutting_down";
    case ErrorCode::kInternal: return "internal";
    case ErrorCode::kUnavailable: return "unavailable";
    case ErrorCode::kCancelled: return "cancelled";
  }
  return "internal";
}

bool IsKnownQueryKind(std::string_view kind) noexcept {
  return FindQueryKind(kind) != nullptr;
}

bool IsBatchQueryKind(std::string_view kind) noexcept {
  const QueryKindSpec* spec = FindQueryKind(kind);
  return spec != nullptr && spec->lane == Lane::kBatch;
}

bool IsPartialQueryKind(std::string_view kind) noexcept {
  const QueryKindSpec* spec = FindQueryKind(kind);
  return spec != nullptr && spec->scatter;
}

bool Request::IsQuery() const noexcept { return IsKnownQueryKind(kind); }

Result<Request> ParseRequest(std::string_view line) {
  GDELT_ASSIGN_OR_RETURN(const JsonValue root, JsonValue::Parse(line));
  if (!root.is_object()) {
    return status::InvalidArgument("request must be a JSON object");
  }
  Request r;
  std::int64_t n = 0;
  bool saw_shard = false;
  bool saw_of = false;
  for (const auto& [key, value] : root.members()) {
    if (key == "id") {
      GDELT_RETURN_IF_ERROR(TakeString(value, key, r.id));
    } else if (key == "query") {
      GDELT_RETURN_IF_ERROR(TakeString(value, key, r.kind));
    } else if (key == "top") {
      GDELT_RETURN_IF_ERROR(TakeInt(value, key, 1'000'000, n));
      r.top_k = static_cast<std::size_t>(n);
    } else if (key == "from") {
      GDELT_RETURN_IF_ERROR(TakeString(value, key, r.from));
    } else if (key == "to") {
      GDELT_RETURN_IF_ERROR(TakeString(value, key, r.to));
    } else if (key == "min_confidence") {
      GDELT_RETURN_IF_ERROR(TakeInt(value, key, 255, n));
      r.min_confidence = static_cast<int>(n);
    } else if (key == "timeout_ms") {
      GDELT_RETURN_IF_ERROR(TakeInt(value, key, 3'600'000, r.timeout_ms));
    } else if (key == "debug_sleep_ms") {
      GDELT_RETURN_IF_ERROR(TakeInt(value, key, 60'000, r.debug_sleep_ms));
    } else if (key == "trace") {
      if (!value.is_bool()) {
        return status::InvalidArgument("'trace' must be a boolean");
      }
      r.trace = value.AsBool();
    } else if (key == "partial") {
      if (!value.is_bool()) {
        return status::InvalidArgument("'partial' must be a boolean");
      }
      r.partial = value.AsBool();
    } else if (key == "shard") {
      GDELT_RETURN_IF_ERROR(TakeInt(value, key, 4'095, n));
      r.shard = static_cast<std::uint32_t>(n);
      saw_shard = true;
    } else if (key == "of") {
      GDELT_RETURN_IF_ERROR(TakeInt(value, key, 4'096, n));
      if (n < 1) {
        return status::InvalidArgument("'of' must be >= 1");
      }
      r.of = static_cast<std::uint32_t>(n);
      saw_of = true;
    } else if (key == "export") {
      GDELT_RETURN_IF_ERROR(TakeString(value, key, r.export_path));
    } else if (key == "mentions") {
      GDELT_RETURN_IF_ERROR(TakeString(value, key, r.mentions_path));
    } else {
      return status::InvalidArgument("unknown request key '" + key + "'");
    }
  }
  if (r.kind.empty()) {
    return status::InvalidArgument("request needs a 'query' field");
  }
  if (!r.from.empty()) {
    GDELT_RETURN_IF_ERROR(TakeBound(r.from, "from", r.filter.begin_interval));
    r.restricted = true;
  }
  if (!r.to.empty()) {
    GDELT_RETURN_IF_ERROR(TakeBound(r.to, "to", r.filter.end_interval));
    r.restricted = true;
  }
  if (r.min_confidence > 0) {
    r.filter.min_confidence = static_cast<std::uint8_t>(r.min_confidence);
    r.restricted = true;
  }
  if (r.kind == "ingest" && r.export_path.empty() &&
      r.mentions_path.empty()) {
    return status::InvalidArgument(
        "ingest needs 'export' and/or 'mentions' paths");
  }
  if (r.kind == "cancel" && r.id.empty()) {
    return status::InvalidArgument(
        "cancel needs an 'id' naming the request to abort");
  }
  if ((saw_shard || saw_of) && !r.partial) {
    return status::InvalidArgument(
        "'shard'/'of' require '\"partial\":true'");
  }
  if (r.partial) {
    const QueryKindSpec* spec = FindQueryKind(r.kind);
    if (spec == nullptr) {
      return status::InvalidArgument(
          "'partial' applies only to query kinds");
    }
    if (r.shard >= r.of) {
      return status::InvalidArgument("'shard' must be < 'of'");
    }
  }
  return r;
}

std::string CanonicalKey(const Request& r) {
  // Normalized bounds (parsed intervals, not raw text) so equivalent
  // spellings of a timestamp share an entry.
  std::string key =
      StrFormat("%s|top=%zu|begin=%lld|end=%lld|conf=%d", r.kind.c_str(),
                r.top_k, static_cast<long long>(r.filter.begin_interval),
                static_cast<long long>(r.filter.end_interval),
                r.min_confidence);
  if (r.partial) {
    key += StrFormat("|part=%u/%u", r.shard, r.of);
  }
  return key;
}

std::string OkResponse(const Request& r, std::string_view text, bool cached,
                       double wall_ms) {
  return OkResponse(r, text, cached, wall_ms, {}, {});
}

std::string OkResponse(const Request& r, std::string_view text, bool cached,
                       double wall_ms,
                       const std::vector<StageTiming>& stages,
                       const std::vector<SpanTiming>& spans) {
  std::string out = "{\"id\":";
  AppendJsonString(out, r.id);
  out += ",\"ok\":true,\"query\":";
  AppendJsonString(out, r.kind);
  out += cached ? ",\"cached\":true" : ",\"cached\":false";
  out += StrFormat(",\"wall_ms\":%.3f", wall_ms);
  if (r.effective_timeout_ms > 0) {
    out += StrFormat(",\"deadline_ms\":%lld",
                     static_cast<long long>(r.effective_timeout_ms));
  }
  if (!stages.empty()) {
    out += ",\"trace\":{\"stages\":[";
    bool first = true;
    for (const StageTiming& stage : stages) {
      if (!first) out += ",";
      first = false;
      out += "{\"name\":";
      AppendJsonString(out, stage.name);
      out += StrFormat(",\"ms\":%.3f}", stage.ms);
    }
    out += "]";
    if (!spans.empty()) {
      out += ",\"spans\":[";
      first = true;
      for (const SpanTiming& span : spans) {
        if (!first) out += ",";
        first = false;
        out += "{\"name\":";
        AppendJsonString(out, span.name);
        out += StrFormat(",\"ms\":%.3f,\"depth\":%d}", span.ms, span.depth);
      }
      out += "]";
    }
    out += "}";
  }
  if (r.partial) {
    // Partial-aggregate requests carry a pre-rendered JSON frame, not
    // display text; splice it in unquoted (docs/PROTOCOL.md).
    out += ",\"partial\":";
    out += text;
  } else {
    out += ",\"text\":";
    AppendJsonString(out, text);
  }
  out += "}\n";
  return out;
}

std::string OkJsonResponse(const Request& r, std::string_view field,
                           std::string_view payload_json) {
  std::string out = "{\"id\":";
  AppendJsonString(out, r.id);
  out += ",\"ok\":true,\"";
  out += field;
  out += "\":";
  out += payload_json;
  out += "}\n";
  return out;
}

std::string ErrorResponse(std::string_view id, ErrorCode code,
                          std::string_view message) {
  return ErrorResponse(id, code, message, /*retry_after_ms=*/0);
}

std::string ErrorResponse(std::string_view id, ErrorCode code,
                          std::string_view message,
                          std::int64_t retry_after_ms) {
  std::string out = "{\"id\":";
  AppendJsonString(out, id);
  out += ",\"ok\":false,\"error\":{\"code\":";
  AppendJsonString(out, ErrorCodeName(code));
  out += ",\"message\":";
  AppendJsonString(out, message);
  if (retry_after_ms > 0) {
    out += StrFormat(",\"retry_after_ms\":%lld",
                     static_cast<long long>(retry_after_ms));
  }
  out += "}}\n";
  return out;
}

}  // namespace gdelt::serve
