#include "stream/delta_store.hpp"

#include <algorithm>
#include <filesystem>
#include <numeric>

#include "io/file.hpp"

namespace gdelt::stream {

// ---------------------------------------------------------- DeltaChunk --

void DeltaChunk::Seal() {
  events.ShrinkToFit();
  mentions.ShrinkToFit();
  new_sources.shrink_to_fit();
  // Both tables hold the full column sets (PublishCsv adds them).
  auto e = convert::EventSpans::Bind(events);
  auto m = convert::MentionSpans::Bind(mentions);
  if (!e.ok() || !m.ok()) std::abort();
  event_spans = *e;
  mention_spans = *m;
}

// ------------------------------------------------------- DeltaSnapshot --

std::string_view DeltaSnapshot::source_domain(std::uint32_t id) const {
  if (id < base_sources_) return base_->source_domain(id);
  const std::uint32_t idx = id - base_sources_;
  // Chunk holding new-source `idx`: offsets are strictly increasing with
  // a one-past-the-end sentinel, so upper_bound-1 is the owning chunk.
  const auto it =
      std::upper_bound(source_offset_.begin(), source_offset_.end(), idx);
  const auto c = static_cast<std::size_t>(it - source_offset_.begin()) - 1;
  // gdelt-astcheck: allow(view-escape) — the snapshot is immutable after
  // publication: chunks_ and every chunk's new_sources are frozen at
  // construction, and the caller's shared_ptr pins the chunk (and its
  // strings) for as long as the view can be looked at.
  return chunks_[c]->new_sources[idx - source_offset_[c]];
}

std::uint16_t DeltaSnapshot::EventCountryOf(std::uint32_t row) const {
  const auto it =
      std::upper_bound(event_offset_.begin(), event_offset_.end(), row);
  const auto c = static_cast<std::size_t>(it - event_offset_.begin()) - 1;
  return chunks_[c]->event_spans.country[row - event_offset_[c]];
}

std::vector<std::uint64_t> DeltaSnapshot::CombinedArticlesPerSource(
    const util::CancelToken* cancel) const {
  // The base is immutable and the snapshot frozen, so nothing here takes
  // a lock; the base scan is the expensive part.
  std::vector<std::uint64_t> counts(num_sources(), 0);
  if (base_) {
    const auto base_counts = engine::ArticlesPerSource(*base_);
    std::copy(base_counts.begin(), base_counts.end(), counts.begin());
  }
  for (const std::shared_ptr<const DeltaChunk>& chunk : chunks_) {
    if (util::Cancelled(cancel)) return counts;  // partial; caller re-checks
    for (const std::uint32_t s : chunk->mention_spans.source_id) ++counts[s];
  }
  return counts;
}

std::vector<std::uint32_t> DeltaSnapshot::CombinedTopSources(
    std::size_t k, const util::CancelToken* cancel) const {
  const auto counts = CombinedArticlesPerSource(cancel);
  if (util::Cancelled(cancel)) return {};
  std::vector<std::uint32_t> ids(counts.size());
  std::iota(ids.begin(), ids.end(), 0u);
  const std::size_t take = std::min(k, ids.size());
  std::partial_sort(ids.begin(),
                    ids.begin() + static_cast<std::ptrdiff_t>(take),
                    ids.end(), [&](std::uint32_t a, std::uint32_t b) {
                      if (counts[a] != counts[b]) return counts[a] > counts[b];
                      return a < b;
                    });
  ids.resize(take);
  return ids;
}

std::uint64_t DeltaSnapshot::CombinedArticlesAboutCountry(
    CountryId country, const util::CancelToken* cancel) const {
  std::uint64_t total = 0;
  if (base_) {
    const auto event_row = base_->mention_event_row();
    const auto event_country = base_->event_country();
    for (std::size_t i = 0; i < event_row.size(); ++i) {
      if ((i & 8191) == 0 && util::Cancelled(cancel)) return total;
      const std::uint32_t row = event_row[i];
      if (row != convert::kOrphanEventRow && event_country[row] == country) {
        ++total;
      }
    }
  }
  for (const std::shared_ptr<const DeltaChunk>& chunk : chunks_) {
    if (util::Cancelled(cancel)) return total;  // partial; caller re-checks
    for (const std::uint32_t ref : chunk->mention_spans.event_row) {
      if (ref == DeltaChunk::kUnknownEvent) continue;
      if (ref & DeltaChunk::kBaseFlag) {
        if (base_->event_country()[ref & ~DeltaChunk::kBaseFlag] == country) {
          ++total;
        }
      } else if (EventCountryOf(ref) == country) {
        ++total;
      }
    }
  }
  return total;
}

// ---------------------------------------------------------- DeltaStore --

DeltaStore::DeltaStore(const engine::Database* base)
    : base_(base),
      fetcher_(std::make_shared<convert::ChunkFetcher>(
          convert::FetchPolicy{})) {
  auto initial = std::make_shared<DeltaSnapshot>();
  initial->base_ = base;
  if (base_) {
    base_sources_ = base_->num_sources();
    initial->base_sources_ = base_sources_;
    // Global event id -> base row, for resolving delta mentions of events
    // that entered the database before streaming began. No other thread
    // can hold the store yet, but the lock keeps the guarded-field
    // invariant uniform.
    sync::MutexLock lock(mu_);
    base_event_row_of_.reserve(base_->num_events());
    const auto gids = base_->event_global_id();
    for (std::size_t r = 0; r < gids.size(); ++r) {
      base_event_row_of_.emplace(gids[r], static_cast<std::uint32_t>(r));
    }
  }
  sync::MutexLock lock(snapshot_mu_);
  snapshot_ = std::move(initial);
}

std::uint32_t DeltaStore::SourceIdForLocked(std::string_view domain,
                                            DeltaChunk& chunk) {
  if (base_) {
    if (const auto id = base_->sources().Find(domain)) return *id;
  }
  const auto it = new_source_ids_.find(std::string(domain));
  if (it != new_source_ids_.end()) return base_sources_ + it->second;
  const auto idx = static_cast<std::uint32_t>(new_source_ids_.size());
  chunk.new_sources.emplace_back(domain);
  new_source_ids_.emplace(chunk.new_sources.back(), idx);
  return base_sources_ + idx;
}

void DeltaStore::set_fetch_policy(const convert::FetchPolicy& policy) {
  sync::MutexLock lock(mu_);
  fetcher_ = std::make_shared<convert::ChunkFetcher>(policy);
}

convert::FetchStats DeltaStore::fetch_stats() const {
  sync::MutexLock lock(mu_);
  return fetcher_->stats();
}

Status DeltaStore::IngestArchivePair(const std::string& export_zip_path,
                                     const std::string& mentions_zip_path) {
  // Fetch and verify BOTH archives before building any snapshot: the
  // fetcher's zip CRC check rejects torn payloads and decoding never fails,
  // so a failure on either side leaves the published snapshot — and
  // Generation() — exactly as it was. The fetch (retries, backoff sleeps)
  // runs without the writer lock so policy swaps and stats reads stay
  // responsive; the local pointer keeps this fetcher alive across a swap.
  // A path that does not exist is an operator error, not a transient
  // mirror failure: NotFound at once, as the converter treats archives
  // missing from the master list, instead of retrying while the caller
  // (the server's ingest lock) waits.
  for (const std::string* path : {&export_zip_path, &mentions_zip_path}) {
    if (!path->empty() && !FileExists(*path)) {
      return status::NotFound("archive '" + *path + "' does not exist");
    }
  }
  std::shared_ptr<convert::ChunkFetcher> fetcher;
  {
    sync::MutexLock lock(mu_);
    fetcher = fetcher_;
  }
  auto fetch = [&](const std::string& path) -> Result<std::string> {
    const std::filesystem::path p(path);
    return fetcher->FetchCsv(p.parent_path().string(),
                             p.filename().string(), std::nullopt);
  };
  std::string events_csv;
  std::string mentions_csv;
  if (!export_zip_path.empty()) {
    GDELT_ASSIGN_OR_RETURN(events_csv, fetch(export_zip_path));
  }
  if (!mentions_zip_path.empty()) {
    GDELT_ASSIGN_OR_RETURN(mentions_csv, fetch(mentions_zip_path));
  }
  PublishCsv(events_csv, mentions_csv);
  return Status::Ok();
}

Status DeltaStore::IngestEventsCsv(std::string_view csv) {
  PublishCsv(csv, {});
  return Status::Ok();
}

Status DeltaStore::IngestMentionsCsv(std::string_view csv) {
  PublishCsv({}, csv);
  return Status::Ok();
}

void DeltaStore::PublishCsv(std::string_view events_csv,
                            std::string_view mentions_csv) {
  sync::MutexLock lock(mu_);
  auto chunk = std::make_shared<DeltaChunk>();
  ApplyEventsCsvLocked(events_csv, *chunk);
  ApplyMentionsCsvLocked(mentions_csv, *chunk);
  chunk->Seal();
  // One publication for the pair: a reader sees both sides land together
  // with a single generation bump, or neither. Copying the snapshot
  // copies chunk pointers and the tick-count-sized offset tables, never
  // rows, so a tick costs O(new rows).
  // mu_ serializes writers, so `cur` stays the published snapshot.
  const auto cur = Acquire();
  auto next = std::make_shared<DeltaSnapshot>(*cur);
  next->generation_ = cur->generation_ + 1;
  next->malformed_rows_ = malformed_rows_;
  next->delta_mentions_ += chunk->mention_spans.source_id.size();
  next->event_offset_.push_back(next->event_offset_.back() +
                                chunk->event_spans.country.size());
  next->source_offset_.push_back(
      next->source_offset_.back() +
      static_cast<std::uint32_t>(chunk->new_sources.size()));
  next->chunks_.push_back(std::move(chunk));
  sync::MutexLock swap(snapshot_mu_);
  snapshot_ = std::move(next);
}

void DeltaStore::ApplyEventsCsvLocked(std::string_view csv,
                                      DeltaChunk& chunk) {
  const convert::EventColumns ec = convert::AddEventColumns(chunk.events);
  convert::RowDecoder<convert::EventRow> rows(csv);
  for (convert::EventRow row; rows.Next(row);) {
    // Global delta rows are allocated sequentially; every kept event has
    // a unique gid entry, so the map size is the next row number. The
    // first occurrence of a gid wins, in the base or in ingest order.
    const auto next = static_cast<std::uint32_t>(event_row_of_.size());
    if (base_event_row_of_.contains(row.gid) ||
        !event_row_of_.emplace(row.gid, next).second) {
      ++malformed_rows_;  // duplicate event
      continue;
    }
    ec.Append(row);
  }
  malformed_rows_ += rows.malformed();
}

void DeltaStore::ApplyMentionsCsvLocked(std::string_view csv,
                                        DeltaChunk& chunk) {
  const convert::MentionColumns mc =
      convert::AddMentionColumns(chunk.mentions);
  convert::RowDecoder<convert::MentionRow> rows(csv);
  for (convert::MentionRow row; rows.Next(row);) {
    std::uint32_t event_ref = DeltaChunk::kUnknownEvent;
    if (const auto it = event_row_of_.find(row.gid);
        it != event_row_of_.end()) {
      event_ref = it->second;
    } else if (const auto bit = base_event_row_of_.find(row.gid);
               bit != base_event_row_of_.end()) {
      event_ref = bit->second | DeltaChunk::kBaseFlag;
    }
    mc.Append(row, event_ref, SourceIdForLocked(row.source_name, chunk));
  }
  malformed_rows_ += rows.malformed();
}

}  // namespace gdelt::stream
