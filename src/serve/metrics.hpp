// Observability surface of the query service.
//
// Counters are lock-free atomics bumped on the request path; latency
// histograms are per query kind with power-of-two microsecond buckets
// (mutex-guarded — the guarded work is a handful of adds, invisible next
// to a query scan). Snapshots render as the JSON payload of the `metrics`
// request and as the periodic one-line log summary.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

#include "util/sync.hpp"

namespace gdelt::serve {

/// Log2-bucketed latency histogram over microseconds.
class LatencyHistogram {
 public:
  /// Bucket 0 counts samples in [0, 2) microseconds (sub-microsecond and
  /// zero-length samples land here, not in a phantom [1, 2) bucket);
  /// bucket b >= 1 counts [2^b, 2^(b+1)); the last bucket (b = 23) is
  /// open-ended, >= 2^23 us (~8.4 s).
  static constexpr int kBuckets = 24;

  /// Exclusive upper edge of bucket `b` in microseconds (2^(b+1)). The
  /// last bucket has no finite edge; renderers report it as +Inf.
  static constexpr std::uint64_t BucketUpperUs(int b) noexcept {
    return 2ull << b;
  }

  void Record(double seconds);

  struct Snapshot {
    std::uint64_t count = 0;
    double sum_ms = 0;
    double max_ms = 0;
    std::uint64_t buckets[kBuckets] = {};

    double MeanMs() const noexcept {
      return count == 0 ? 0.0 : sum_ms / static_cast<double>(count);
    }
    /// Upper bound of the bucket holding quantile `q` in [0, 1], clamped
    /// to the observed maximum (the top bucket is open-ended, and any
    /// bucket's edge can overshoot the largest sample actually seen).
    double QuantileMs(double q) const noexcept;
  };
  Snapshot Snap() const;

 private:
  mutable sync::Mutex mu_;
  Snapshot data_ GDELT_GUARDED_BY(mu_);
};

/// All server-side counters plus the per-kind latency histograms.
class ServerMetrics {
 public:
  std::atomic<std::uint64_t> requests_total{0};
  std::atomic<std::uint64_t> responses_ok{0};
  std::atomic<std::uint64_t> cache_hits{0};
  std::atomic<std::uint64_t> cache_misses{0};
  std::atomic<std::uint64_t> rejected_overloaded{0};
  std::atomic<std::uint64_t> timeouts{0};
  // Cooperative-cancellation outcomes, split by who pulled the trigger:
  // the armed deadline expiring mid-execution, the client vanishing
  // (POLLHUP while queued/executing), or an explicit `cancel` verb (the
  // router's orphaned-scatter reaper, or any client by request id).
  std::atomic<std::uint64_t> cancelled_deadline{0};
  std::atomic<std::uint64_t> cancelled_disconnect{0};
  std::atomic<std::uint64_t> cancelled_router{0};
  // Deadline-expired renders whose full text was cached anyway (tagged
  // late) and later served a repeat of the same canonical key.
  std::atomic<std::uint64_t> timeouts_salvaged_by_cache{0};
  std::atomic<std::uint64_t> bad_requests{0};
  std::atomic<std::uint64_t> unknown_queries{0};
  std::atomic<std::uint64_t> internal_errors{0};
  std::atomic<std::uint64_t> ingests{0};
  std::atomic<std::uint64_t> ingest_failures{0};
  std::atomic<std::uint64_t> connections_opened{0};

  void RecordLatency(const std::string& kind, double seconds);

  /// Gauges sampled by the caller at render time.
  struct Gauges {
    std::size_t queue_depth = 0;
    std::size_t queue_capacity = 0;
    int workers = 0;
    std::size_t pool_workers = 0;  ///< workers of the shared morsel pool
    std::uint64_t epoch = 0;
    std::size_t cache_entries = 0;
    std::uint64_t cache_text_bytes = 0;
    /// Entries collected because their epoch went stale (cumulative).
    std::uint64_t cache_evicted_stale = 0;
    double uptime_s = 0;
    // ingest/fetch health (from the delta store's ChunkFetcher)
    std::uint64_t ingest_retries = 0;
    std::uint64_t ingest_quarantined = 0;
    std::uint64_t last_ingest_generation = 0;
    double last_ingest_age_s = -1;  ///< seconds since last success; -1 = never
    // cancellation/overload health
    std::uint64_t morsels_skipped = 0;   ///< pool morsels drained as no-ops
    std::int64_t retry_after_ms = 0;     ///< last backoff hint handed out
  };

  /// The `metrics` response payload: one JSON object (no trailing
  /// newline), counters + gauges + per-kind histograms.
  std::string ToJson(const Gauges& gauges) const;

  /// One-line human summary for the periodic server log.
  std::string Summary(const Gauges& gauges) const;

  /// Per-kind histogram snapshots (for the Prometheus exposition).
  std::map<std::string, LatencyHistogram::Snapshot> HistogramSnapshots() const;

 private:
  mutable sync::Mutex histograms_mu_;
  std::map<std::string, LatencyHistogram> histograms_
      GDELT_GUARDED_BY(histograms_mu_);
};

}  // namespace gdelt::serve
