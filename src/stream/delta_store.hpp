// Live ingestion of new GDELT chunks on top of a converted base database.
//
// GDELT uploads an Events + Mentions file pair every 15 minutes; the paper
// notes that "following current events only poses a moderate challenge for
// modern computers" while historical analysis needs the converted store.
// DeltaStore is that following path. It decodes each arrived pair with
// the converter's row decoder (convert/wire_rows.hpp) into a DeltaChunk:
// an events and a mentions table with the base tables' columns and types,
// so a delta row is the row the converter would write. Mentions resolve
// their event through the base or earlier chunks, and their source
// through the base dictionary, extended for never-seen sources. Query
// replies still read the base alone: the `Combined*` accessors below are
// the only readers of the delta so far.
//
// Concurrency model: RCU-style snapshot publication. All delta state a
// reader can observe lives in an immutable `DeltaSnapshot` — the chunks,
// the new-source dictionary, and the ingest generation baked into the
// same object — published by swapping one `shared_ptr`. A request that
// acquires once and then calls any number of `Combined*` accessors gets
// counts consistent with exactly one generation, however many ticks land
// meanwhile. A reader holds the snapshot mutex only to copy that pointer,
// and copies no rows. Ingest builds the next snapshot off to the side
// (chunk sharing makes a tick O(new rows)) under the writer mutex, which
// serializes writers (and the fetch-policy swap) and which readers never
// take, so a reader never waits on a decode.
//
// The convenience accessors directly on DeltaStore (`delta_events()`,
// `CombinedMentionCount()`, ...) each acquire their own snapshot, so two
// consecutive calls may straddle a tick. Anything that needs
// cross-accessor consistency — a stats render, a cache keyed by
// generation — must hold one snapshot and read everything from it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "convert/binary_format.hpp"
#include "convert/fetcher.hpp"
#include "convert/wire_rows.hpp"
#include "engine/database.hpp"
#include "engine/queries.hpp"
#include "util/cancel.hpp"
#include "util/status.hpp"
#include "util/sync.hpp"

namespace gdelt::stream {

/// One ingest call's decoded rows. Immutable once published; successive
/// snapshots share all previous chunks by pointer, so publishing tick N+1
/// never copies the rows of ticks 1..N.
struct DeltaChunk {
  /// The tick's events (delta row = chunk-local row + the chunk's event
  /// offset in the snapshot).
  Table events;
  /// The tick's mentions: `event_row` is a global delta event row,
  /// kBaseFlag | base row, or kUnknownEvent; `source_id` a combined id.
  Table mentions;
  /// Domains first seen by this tick (combined id = the chunk's source
  /// offset in the snapshot + index).
  std::vector<std::string> new_sources;
  /// Both tables' columns, bound once by Seal as Database::Load binds the
  /// base's.
  convert::EventSpans event_spans;
  convert::MentionSpans mention_spans;

  /// Drops the tables' growth slack, then binds the spans.
  void Seal();

  static constexpr std::uint32_t kBaseFlag = 0x80000000u;
  static constexpr std::uint32_t kUnknownEvent = convert::kOrphanEventRow;
};

/// A frozen view of the delta at one ingest generation. Everything here
/// is immutable after publication: holding the shared_ptr keeps every
/// chunk (and every string a returned view points into) alive, and all
/// accessors are const reads with no synchronization whatsoever.
class DeltaSnapshot {
 public:
  /// The ingest generation this snapshot was published at. Data and
  /// generation live in the same immutable object, so they can never be
  /// observed torn against each other.
  std::uint64_t generation() const noexcept { return generation_; }

  std::uint64_t delta_events() const noexcept {
    return event_offset_.back();
  }
  std::uint64_t delta_mentions() const noexcept { return delta_mentions_; }
  std::uint64_t malformed_rows() const noexcept { return malformed_rows_; }

  /// Total sources across base + newly discovered ones.
  std::uint32_t num_sources() const noexcept {
    return base_sources_ + source_offset_.back();
  }

  /// Domain for a combined source id (base ids first, then new ones).
  /// The view stays valid for as long as this snapshot is held.
  std::string_view source_domain(std::uint32_t id) const;

  /// Every published tick's chunk, oldest first.
  const std::vector<std::shared_ptr<const DeltaChunk>>& chunks()
      const noexcept {
    return chunks_;
  }

  // --- combined queries (base + delta) ---
  // Every accessor below reads only this frozen snapshot (plus the
  // immutable base), so a sequence of calls on one snapshot yields a
  // mutually consistent, single-generation result. `cancel` follows the
  // kernel convention (analysis/country.cpp): the scan polls the token
  // and bails early, returning a partial value the caller must discard
  // after re-checking the token.

  /// Articles per combined source id.
  std::vector<std::uint64_t> CombinedArticlesPerSource(
      const util::CancelToken* cancel = nullptr) const;
  /// Total articles.
  std::uint64_t CombinedMentionCount() const noexcept {
    return (base_ ? base_->num_mentions() : 0) + delta_mentions_;
  }
  /// Top combined sources by articles, descending.
  std::vector<std::uint32_t> CombinedTopSources(
      std::size_t k, const util::CancelToken* cancel = nullptr) const;
  /// Articles about events located in `country` (base + delta; delta
  /// mentions of base events resolve their location through the base).
  std::uint64_t CombinedArticlesAboutCountry(
      CountryId country, const util::CancelToken* cancel = nullptr) const;

 private:
  friend class DeltaStore;

  /// Country of a global delta event row (binary search over the chunk
  /// offsets; the chunk count is the tick count, so this is cheap).
  std::uint16_t EventCountryOf(std::uint32_t row) const;

  const engine::Database* base_ = nullptr;  ///< may be null
  std::uint32_t base_sources_ = 0;
  std::uint64_t generation_ = 0;
  std::uint64_t delta_mentions_ = 0;
  std::uint64_t malformed_rows_ = 0;

  /// All published ticks, oldest first; shared (not copied) with every
  /// other snapshot that contains them.
  std::vector<std::shared_ptr<const DeltaChunk>> chunks_;
  /// event_offset_[i] = global delta event row of chunks_[i]'s first
  /// event; one-past-the-end sentinel at the back (size chunks_+1).
  std::vector<std::uint64_t> event_offset_ = {0};
  /// source_offset_[i] = combined source id of chunks_[i]'s first new
  /// source, minus base_sources_; sentinel at the back.
  std::vector<std::uint32_t> source_offset_ = {0};
};

/// Accumulates newly arrived chunks over an optional base database.
class DeltaStore {
 public:
  /// `base` may be null (cold start, pure streaming). If given, it must
  /// outlive the store.
  explicit DeltaStore(const engine::Database* base);

  /// The current immutable snapshot (never null): a pointer copy under
  /// the snapshot mutex, no row copies. Hold it for the duration of a
  /// request to get cross-accessor consistency.
  std::shared_ptr<const DeltaSnapshot> Acquire() const {
    sync::MutexLock lock(snapshot_mu_);
    return snapshot_;
  }

  /// Parses one pair of chunk archives (store-mode .zip as produced by
  /// GDELT / the generator). Either path may be empty to skip that side.
  /// All-or-nothing: both archives are fetched and verified (with retries
  /// per the fetch policy) before any row is applied, so a truncated or
  /// corrupt archive leaves the published snapshot — and Generation() —
  /// untouched.
  Status IngestArchivePair(const std::string& export_zip_path,
                           const std::string& mentions_zip_path);

  /// Parses raw CSV text (already unzipped).
  Status IngestEventsCsv(std::string_view csv);
  Status IngestMentionsCsv(std::string_view csv);

  /// Replaces the archive-fetch retry/backoff policy (resets fetch stats).
  void set_fetch_policy(const convert::FetchPolicy& policy);

  /// Fetch health counters; safe to read while another thread ingests.
  convert::FetchStats fetch_stats() const;

  // --- snapshot-forwarding accessors ---
  // Each call acquires its own snapshot; see the header comment for the
  // consistency contract across multiple calls.
  std::uint64_t delta_events() const { return Acquire()->delta_events(); }
  std::uint64_t delta_mentions() const {
    return Acquire()->delta_mentions();
  }
  std::uint64_t malformed_rows() const {
    return Acquire()->malformed_rows();
  }

  /// Monotonic ingest epoch: baked into the snapshot published by every
  /// successful ingest call, so result caches keyed by
  /// (query, generation) invalidate as soon as new data lands and a
  /// reader can never observe post-ingest rows paired with the
  /// pre-ingest epoch — both live in the same immutable object.
  std::uint64_t Generation() const { return Acquire()->generation(); }

  /// Total sources across base + newly discovered ones.
  std::uint32_t num_sources() const { return Acquire()->num_sources(); }

  /// Domain for a combined source id. Returned by value: the backing
  /// string lives in a snapshot this call releases before returning.
  std::string source_domain(std::uint32_t id) const {
    return std::string(Acquire()->source_domain(id));
  }

  // --- combined queries (base + delta), each on its own snapshot ---
  std::vector<std::uint64_t> CombinedArticlesPerSource(
      const util::CancelToken* cancel = nullptr) const {
    return Acquire()->CombinedArticlesPerSource(cancel);
  }
  std::uint64_t CombinedMentionCount() const {
    return Acquire()->CombinedMentionCount();
  }
  std::vector<std::uint32_t> CombinedTopSources(
      std::size_t k, const util::CancelToken* cancel = nullptr) const {
    return Acquire()->CombinedTopSources(k, cancel);
  }
  std::uint64_t CombinedArticlesAboutCountry(
      CountryId country, const util::CancelToken* cancel = nullptr) const {
    return Acquire()->CombinedArticlesAboutCountry(country, cancel);
  }

 private:
  std::uint32_t SourceIdForLocked(std::string_view domain, DeltaChunk& chunk)
      GDELT_REQUIRES(mu_);

  /// Decodes one tick's CSVs (either may be empty) into one chunk and
  /// publishes generation+1 with it, sharing every earlier chunk by
  /// pointer. Never fails: malformed rows are only counted.
  void PublishCsv(std::string_view events_csv,
                  std::string_view mentions_csv);

  /// Row-apply halves of PublishCsv: append to `chunk` and update the
  /// writer-side lookup maps.
  void ApplyEventsCsvLocked(std::string_view csv, DeltaChunk& chunk)
      GDELT_REQUIRES(mu_);
  void ApplyMentionsCsvLocked(std::string_view csv, DeltaChunk& chunk)
      GDELT_REQUIRES(mu_);

  const engine::Database* base_;    ///< may be null
  std::uint32_t base_sources_ = 0;  ///< set once in the constructor

  /// Guards only the snapshot pointer: Acquire copies it, PublishCsv
  /// swaps in the successor. No other lock is taken while it is held.
  mutable sync::Mutex snapshot_mu_;
  /// The published snapshot. Never null after construction.
  std::shared_ptr<const DeltaSnapshot> snapshot_
      GDELT_GUARDED_BY(snapshot_mu_);

  /// Writer-side mutex: serializes ingests and guards the mutable lookup
  /// state below. Readers never take it.
  mutable sync::Mutex mu_;

  /// Guarded so set_fetch_policy cannot race a stats read. Shared, not
  /// unique: IngestArchivePair snapshots the pointer and fetches outside
  /// the lock, and the snapshot must keep the fetcher alive if the policy
  /// is swapped mid-fetch. The pointee is internally thread-safe.
  std::shared_ptr<convert::ChunkFetcher> fetcher_ GDELT_GUARDED_BY(mu_);

  // Writer-only lookup state (readers resolve everything through the
  // snapshot): global event id -> delta row / base row, domain -> new
  // source index, running malformed-row tally.
  std::unordered_map<std::uint64_t, std::uint32_t> event_row_of_
      GDELT_GUARDED_BY(mu_);
  std::unordered_map<std::uint64_t, std::uint32_t> base_event_row_of_
      GDELT_GUARDED_BY(mu_);
  std::unordered_map<std::string, std::uint32_t> new_source_ids_
      GDELT_GUARDED_BY(mu_);
  std::uint64_t malformed_rows_ GDELT_GUARDED_BY(mu_) = 0;
};

}  // namespace gdelt::stream
