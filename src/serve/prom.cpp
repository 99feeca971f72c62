#include "serve/prom.hpp"

#include "util/strings.hpp"

namespace gdelt::serve {
namespace {

void Counter(std::string& out, const char* name, std::uint64_t value) {
  out += StrFormat("# TYPE %s counter\n%s %llu\n", name, name,
                   static_cast<unsigned long long>(value));
}

void Gauge(std::string& out, const char* name, double value) {
  out += StrFormat("# TYPE %s gauge\n%s %.9g\n", name, name, value);
}

}  // namespace

std::string PromEscapeLabel(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string PrometheusText(const ServerMetrics& metrics,
                           const ServerMetrics::Gauges& gauges,
                           const std::vector<trace::SpanAggregate>& spans) {
  std::string out;
  out.reserve(4096);

  Counter(out, "gdelt_requests_total", metrics.requests_total.load());
  Counter(out, "gdelt_responses_ok_total", metrics.responses_ok.load());
  Counter(out, "gdelt_cache_hits_total", metrics.cache_hits.load());
  Counter(out, "gdelt_cache_misses_total", metrics.cache_misses.load());
  Counter(out, "gdelt_rejected_overloaded_total",
          metrics.rejected_overloaded.load());
  Counter(out, "gdelt_timeouts_total", metrics.timeouts.load());
  Counter(out, "gdelt_cancelled_deadline_total",
          metrics.cancelled_deadline.load());
  Counter(out, "gdelt_cancelled_disconnect_total",
          metrics.cancelled_disconnect.load());
  Counter(out, "gdelt_cancelled_router_total",
          metrics.cancelled_router.load());
  Counter(out, "gdelt_timeouts_salvaged_by_cache_total",
          metrics.timeouts_salvaged_by_cache.load());
  Counter(out, "gdelt_bad_requests_total", metrics.bad_requests.load());
  Counter(out, "gdelt_unknown_queries_total", metrics.unknown_queries.load());
  Counter(out, "gdelt_internal_errors_total", metrics.internal_errors.load());
  Counter(out, "gdelt_ingests_total", metrics.ingests.load());
  Counter(out, "gdelt_ingest_failures_total", metrics.ingest_failures.load());
  Counter(out, "gdelt_connections_opened_total",
          metrics.connections_opened.load());
  Counter(out, "gdelt_ingest_retries_total", gauges.ingest_retries);
  Counter(out, "gdelt_ingest_quarantined_total", gauges.ingest_quarantined);

  Gauge(out, "gdelt_queue_depth", static_cast<double>(gauges.queue_depth));
  Gauge(out, "gdelt_queue_capacity",
        static_cast<double>(gauges.queue_capacity));
  Gauge(out, "gdelt_workers", gauges.workers);
  Gauge(out, "gdelt_pool_workers", static_cast<double>(gauges.pool_workers));
  Gauge(out, "gdelt_epoch", static_cast<double>(gauges.epoch));
  Gauge(out, "gdelt_cache_entries", static_cast<double>(gauges.cache_entries));
  Gauge(out, "gdelt_cache_text_bytes",
        static_cast<double>(gauges.cache_text_bytes));
  Counter(out, "gdelt_cache_evicted_stale_total", gauges.cache_evicted_stale);
  Gauge(out, "gdelt_uptime_seconds", gauges.uptime_s);
  Gauge(out, "gdelt_last_ingest_age_seconds", gauges.last_ingest_age_s);
  Counter(out, "gdelt_morsels_skipped_total", gauges.morsels_skipped);
  Gauge(out, "gdelt_retry_after_ms",
        static_cast<double>(gauges.retry_after_ms));

  const auto histograms = metrics.HistogramSnapshots();
  if (!histograms.empty()) {
    out += "# TYPE gdelt_request_latency_seconds histogram\n";
    for (const auto& [kind, snap] : histograms) {
      const std::string label = PromEscapeLabel(kind);
      std::uint64_t cumulative = 0;
      for (int b = 0; b < LatencyHistogram::kBuckets; ++b) {
        cumulative += snap.buckets[b];
        // The last bucket is open-ended; only +Inf covers it.
        if (b + 1 == LatencyHistogram::kBuckets) break;
        out += StrFormat(
            "gdelt_request_latency_seconds_bucket{kind=\"%s\",le=\"%.9g\"} "
            "%llu\n",
            label.c_str(),
            static_cast<double>(LatencyHistogram::BucketUpperUs(b)) / 1e6,
            static_cast<unsigned long long>(cumulative));
      }
      out += StrFormat(
          "gdelt_request_latency_seconds_bucket{kind=\"%s\",le=\"+Inf\"} "
          "%llu\n",
          label.c_str(), static_cast<unsigned long long>(snap.count));
      out += StrFormat("gdelt_request_latency_seconds_sum{kind=\"%s\"} %.9g\n",
                       label.c_str(), snap.sum_ms / 1e3);
      out += StrFormat(
          "gdelt_request_latency_seconds_count{kind=\"%s\"} %llu\n",
          label.c_str(), static_cast<unsigned long long>(snap.count));
    }
  }

  if (!spans.empty()) {
    out += "# TYPE gdelt_trace_span_total counter\n";
    for (const auto& span : spans) {
      out += StrFormat("gdelt_trace_span_total{name=\"%s\"} %llu\n",
                       PromEscapeLabel(span.name).c_str(),
                       static_cast<unsigned long long>(span.count));
    }
    out += "# TYPE gdelt_trace_span_seconds_total counter\n";
    for (const auto& span : spans) {
      out += StrFormat("gdelt_trace_span_seconds_total{name=\"%s\"} %.9g\n",
                       PromEscapeLabel(span.name).c_str(),
                       static_cast<double>(span.total_us) / 1e6);
    }
    out += "# TYPE gdelt_trace_span_max_seconds gauge\n";
    for (const auto& span : spans) {
      out += StrFormat("gdelt_trace_span_max_seconds{name=\"%s\"} %.9g\n",
                       PromEscapeLabel(span.name).c_str(),
                       static_cast<double>(span.max_us) / 1e6);
    }
  }
  return out;
}

}  // namespace gdelt::serve
