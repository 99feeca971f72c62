#include "serve/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "serve/json.hpp"
#include "util/strings.hpp"

namespace gdelt::serve {

void LatencyHistogram::Record(double seconds) {
  const double us = std::max(0.0, seconds * 1e6);
  int bucket = 0;
  while (bucket + 1 < kBuckets && us >= static_cast<double>(2ull << bucket)) {
    ++bucket;
  }
  sync::MutexLock lock(mu_);
  ++data_.count;
  data_.sum_ms += seconds * 1e3;
  data_.max_ms = std::max(data_.max_ms, seconds * 1e3);
  ++data_.buckets[bucket];
}

double LatencyHistogram::Snapshot::QuantileMs(double q) const noexcept {
  if (count == 0) return 0.0;
  // rank >= 1: with q == 0 an unclamped rank of 0 matched the very first
  // (possibly empty) bucket and reported 2 us out of thin air.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(count))));
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets[b];
    if (seen >= rank) {
      // Bucket upper edge, clamped to the observed max: the top bucket is
      // open-ended (its edge would claim 16.7 s for anything >= 8.4 s) and
      // even interior edges can overshoot the largest sample seen.
      return std::min(static_cast<double>(BucketUpperUs(b)) / 1e3, max_ms);
    }
  }
  return max_ms;
}

LatencyHistogram::Snapshot LatencyHistogram::Snap() const {
  sync::MutexLock lock(mu_);
  return data_;
}

void ServerMetrics::RecordLatency(const std::string& kind, double seconds) {
  sync::MutexLock lock(histograms_mu_);
  histograms_[kind].Record(seconds);
}

std::map<std::string, LatencyHistogram::Snapshot>
ServerMetrics::HistogramSnapshots() const {
  sync::MutexLock lock(histograms_mu_);
  std::map<std::string, LatencyHistogram::Snapshot> out;
  for (const auto& [kind, histogram] : histograms_) {
    out.emplace(kind, histogram.Snap());
  }
  return out;
}

std::string ServerMetrics::ToJson(const Gauges& gauges) const {
  std::string out = "{";
  const auto counter = [&out](const char* name, std::uint64_t value,
                              bool comma = true) {
    out += StrFormat("\"%s\":%llu%s", name,
                     static_cast<unsigned long long>(value),
                     comma ? "," : "");
  };
  counter("requests_total", requests_total.load());
  counter("responses_ok", responses_ok.load());
  counter("cache_hits", cache_hits.load());
  counter("cache_misses", cache_misses.load());
  counter("rejected_overloaded", rejected_overloaded.load());
  counter("timeouts", timeouts.load());
  counter("cancelled_deadline", cancelled_deadline.load());
  counter("cancelled_disconnect", cancelled_disconnect.load());
  counter("cancelled_router", cancelled_router.load());
  counter("timeouts_salvaged_by_cache", timeouts_salvaged_by_cache.load());
  counter("bad_requests", bad_requests.load());
  counter("unknown_queries", unknown_queries.load());
  counter("internal_errors", internal_errors.load());
  counter("ingests", ingests.load());
  counter("ingest_failures", ingest_failures.load());
  counter("connections_opened", connections_opened.load());
  counter("ingest_retries", gauges.ingest_retries);
  counter("ingest_quarantined", gauges.ingest_quarantined);
  counter("last_ingest_generation", gauges.last_ingest_generation);
  out += StrFormat("\"last_ingest_age_s\":%.1f,", gauges.last_ingest_age_s);
  counter("queue_depth", gauges.queue_depth);
  counter("queue_capacity", gauges.queue_capacity);
  counter("workers", static_cast<std::uint64_t>(gauges.workers));
  counter("pool_workers", gauges.pool_workers);
  counter("epoch", gauges.epoch);
  counter("cache_entries", gauges.cache_entries);
  counter("cache_text_bytes", gauges.cache_text_bytes);
  counter("cache_evicted_stale", gauges.cache_evicted_stale);
  counter("morsels_skipped", gauges.morsels_skipped);
  out += StrFormat("\"retry_after_ms\":%lld,",
                   static_cast<long long>(gauges.retry_after_ms));
  out += StrFormat("\"uptime_s\":%.1f,", gauges.uptime_s);
  out += "\"latency_ms\":{";
  {
    sync::MutexLock lock(histograms_mu_);
    bool first = true;
    for (const auto& [kind, histogram] : histograms_) {
      const auto snap = histogram.Snap();
      if (!first) out += ",";
      first = false;
      AppendJsonString(out, kind);
      out += StrFormat(
          ":{\"count\":%llu,\"mean\":%.3f,\"p50\":%.3f,\"p90\":%.3f,"
          "\"p99\":%.3f,\"max\":%.3f}",
          static_cast<unsigned long long>(snap.count), snap.MeanMs(),
          snap.QuantileMs(0.50), snap.QuantileMs(0.90),
          snap.QuantileMs(0.99), snap.max_ms);
    }
  }
  out += "}}";
  return out;
}

std::string ServerMetrics::Summary(const Gauges& gauges) const {
  return StrFormat(
      "served=%llu ok=%llu hit=%llu miss=%llu overload=%llu timeout=%llu "
      "cancelled=%llu bad=%llu queue=%zu/%zu cache=%zu epoch=%llu "
      "ingest_fail=%llu retries=%llu quarantined=%llu ingest_age=%.0fs "
      "up=%.0fs",
      static_cast<unsigned long long>(requests_total.load()),
      static_cast<unsigned long long>(responses_ok.load()),
      static_cast<unsigned long long>(cache_hits.load()),
      static_cast<unsigned long long>(cache_misses.load()),
      static_cast<unsigned long long>(rejected_overloaded.load()),
      static_cast<unsigned long long>(timeouts.load()),
      static_cast<unsigned long long>(cancelled_deadline.load() +
                                      cancelled_disconnect.load() +
                                      cancelled_router.load()),
      static_cast<unsigned long long>(bad_requests.load()),
      gauges.queue_depth, gauges.queue_capacity, gauges.cache_entries,
      static_cast<unsigned long long>(gauges.epoch),
      static_cast<unsigned long long>(ingest_failures.load()),
      static_cast<unsigned long long>(gauges.ingest_retries),
      static_cast<unsigned long long>(gauges.ingest_quarantined),
      gauges.last_ingest_age_s, gauges.uptime_s);
}

}  // namespace gdelt::serve
