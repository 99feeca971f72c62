// Sharded LRU result cache for the query service.
//
// Keys are the canonical request text (serve::CanonicalKey) plus the
// database epoch — the DeltaStore's ingest generation — so a cache entry
// is invalidated the moment new data lands. Entries are spread over
// N shards by key hash, each with its own mutex and LRU list, so
// concurrent workers contend only when they touch the same shard.
// Payloads are shared_ptr<const std::string>: a hit hands back a
// refcount bump, never a copy of the response bytes under a lock.
//
// Epoch rules:
//  - Get/GetTagged with a newer epoch than an entry drops that entry
//    (it can never be served again).
//  - Put refuses to replace an entry carrying a newer epoch, and refuses
//    to insert below the latest epoch the shard has observed — a slow
//    render keyed to a pre-ingest epoch can neither clobber a fresh
//    entry nor park dead bytes in the LRU.
//  - ObserveEpoch(e) (called on ingest) eagerly sweeps every shard's
//    stale entries so entries()/text_bytes() reflect servable data
//    instead of waiting for a same-key Get to collect them.
// Every stale removal — lazy or swept — counts in evicted_stale().
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/sync.hpp"

namespace gdelt::serve {

class ResultCache {
 public:
  /// `max_entries` == 0 disables caching entirely. Small caches
  /// (< kShardThreshold entries) use a single shard and behave as one
  /// exact global LRU; larger ones split capacity over kShards shards,
  /// making eviction LRU-per-shard (approximately global).
  explicit ResultCache(std::size_t max_entries);

  /// The cached text for (key, epoch), marking it most-recently used.
  /// An entry stored under an older epoch is dropped and counts as a miss.
  std::optional<std::string> Get(const std::string& key, std::uint64_t epoch);

  /// A Get result that also reports how the entry got there.
  struct Hit {
    std::shared_ptr<const std::string> text;  ///< never null
    bool late = false;  ///< true if cached by a render that missed its
                        ///< deadline (a salvaged timeout)
  };

  /// Like Get, but surfaces the `late` tag and shares the payload
  /// instead of copying it.
  std::optional<Hit> GetTagged(const std::string& key, std::uint64_t epoch);

  /// Inserts the entry, evicting from the shard's LRU tail as needed.
  /// Refused (returns false) when the slot already holds a newer epoch
  /// or the shard has observed a newer epoch — see the header comment.
  /// `late` tags text whose request's deadline expired after the render
  /// passed its final token check — still complete and correct, just
  /// too slow for the client that paid for it.
  bool Put(const std::string& key, std::uint64_t epoch, std::string text,
           bool late = false);

  /// Tells the cache the database moved to `epoch`: sweeps every shard's
  /// now-stale entries so they stop occupying capacity and counters.
  void ObserveEpoch(std::uint64_t epoch);

  void Clear();

  // --- observability (see ServerMetrics::ToJson) ---
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::size_t entries() const;
  std::uint64_t text_bytes() const;
  /// Entries removed because their epoch went stale (lazy drop or sweep).
  std::uint64_t evicted_stale() const;

  static constexpr std::size_t kShards = 8;
  static constexpr std::size_t kShardThreshold = 64;

 private:
  struct Entry {
    std::string key;
    std::uint64_t epoch;
    std::shared_ptr<const std::string> text;
    bool late = false;
  };

  struct Shard {
    mutable sync::Mutex mu;
    /// front = most recently used
    std::list<Entry> lru GDELT_GUARDED_BY(mu);
    std::unordered_map<std::string, std::list<Entry>::iterator> index
        GDELT_GUARDED_BY(mu);
    std::uint64_t text_bytes GDELT_GUARDED_BY(mu) = 0;
    /// Highest epoch this shard has seen (via Get/Put/ObserveEpoch);
    /// puts below it are refused.
    std::uint64_t seen_epoch GDELT_GUARDED_BY(mu) = 0;
    std::size_t max_entries = 0;
  };

  Shard& ShardFor(const std::string& key);
  /// Drops `it` from `shard`, charging it to the stale counter iff
  /// `stale`. Caller must hold shard.mu.
  void EraseLocked(Shard& shard, std::list<Entry>::iterator it, bool stale)
      GDELT_REQUIRES(shard.mu);
  void SweepShardLocked(Shard& shard, std::uint64_t epoch)
      GDELT_REQUIRES(shard.mu);

  const std::size_t max_entries_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evicted_stale_{0};
};

}  // namespace gdelt::serve
