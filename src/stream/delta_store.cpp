#include "stream/delta_store.hpp"

#include <algorithm>
#include <filesystem>
#include <numeric>

#include "convert/binary_format.hpp"
#include "csv/tsv.hpp"
#include "gtime/timestamp.hpp"
#include "io/file.hpp"
#include "schema/gdelt_schema.hpp"
#include "util/strings.hpp"

namespace gdelt::stream {
namespace {

bool FieldToInterval(std::string_view field, std::int64_t& out) {
  const auto parsed = ParseGdeltTimestamp(field);
  if (!parsed.ok()) return false;
  out = IntervalOfCivil(parsed.value());
  return true;
}

}  // namespace

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
  return chunks_[c]->event_country[row - event_offset_[c]];
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
    for (const std::uint32_t s : chunk->mention_source) ++counts[s];
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
    for (const std::uint32_t ref : chunk->mention_event) {
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
  snapshot_.store(std::move(initial), std::memory_order_release);
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
  // Acquire and verify BOTH archives before building any snapshot: the
  // zip entry CRC check inside the fetcher rejects torn payloads, and the
  // row parsers below never fail (malformed rows are counted). So a
  // failure on either side leaves the published snapshot — and
  // Generation() — exactly as it was.
  //
  // The fetch itself (retries, backoff sleeps) runs without the writer
  // lock so set_fetch_policy and stats reads stay responsive while a
  // flaky archive is retried for seconds (combined queries never block on
  // ingest at all — they read the published snapshot). set_fetch_policy
  // during an in-flight fetch swaps the pointer for later calls; the
  // snapshot keeps this one alive.
  //
  // A path that does not exist is an operator error, not a transient
  // mirror failure: answer NotFound at once, as the converter does for
  // archives missing from the master list, instead of letting the fetcher
  // retry and sleep while the caller (the server's ingest lock) waits.
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
  {
    sync::MutexLock lock(mu_);
    DeltaChunk chunk;
    if (!export_zip_path.empty()) ApplyEventsCsvLocked(events_csv, chunk);
    if (!mentions_zip_path.empty()) {
      ApplyMentionsCsvLocked(mentions_csv, chunk);
    }
    // One publication for the pair: a reader sees both sides land
    // together with a single generation bump, or neither.
    PublishLocked(std::move(chunk));
  }
  return Status::Ok();
}

Status DeltaStore::IngestEventsCsv(std::string_view csv) {
  sync::MutexLock lock(mu_);
  DeltaChunk chunk;
  ApplyEventsCsvLocked(csv, chunk);
  PublishLocked(std::move(chunk));
  return Status::Ok();
}

Status DeltaStore::IngestMentionsCsv(std::string_view csv) {
  sync::MutexLock lock(mu_);
  DeltaChunk chunk;
  ApplyMentionsCsvLocked(csv, chunk);
  PublishLocked(std::move(chunk));
  return Status::Ok();
}

void DeltaStore::ApplyEventsCsvLocked(std::string_view csv,
                                      DeltaChunk& chunk) {
  // Global delta rows are allocated sequentially; every applied event has
  // a unique gid entry, so the map size is the next row number.
  RowReader rows(csv, kEventFieldCount);
  const std::vector<std::string_view>* fields = nullptr;
  while (rows.Next(fields)) {
    const auto& f = *fields;
    const auto gid = ParseUint64(f[Index(EventField::kGlobalEventId)]);
    std::int64_t added = 0;
    if (!gid ||
        !FieldToInterval(f[Index(EventField::kDateAdded)], added)) {
      ++malformed_rows_;
      continue;
    }
    if (base_event_row_of_.count(*gid) || event_row_of_.count(*gid)) {
      ++malformed_rows_;  // duplicate event
      continue;
    }
    CountryId country = kNoCountry;
    const std::string_view fips =
        f[Index(EventField::kActionGeoCountryCode)];
    if (!fips.empty()) {
      if (const auto c = CountryByFips(fips)) country = *c;
    }
    const auto row = static_cast<std::uint32_t>(event_row_of_.size());
    chunk.event_interval.push_back(added);
    chunk.event_country.push_back(country);
    event_row_of_.emplace(*gid, row);
  }
  malformed_rows_ += rows.errors().size();
}

void DeltaStore::ApplyMentionsCsvLocked(std::string_view csv,
                                        DeltaChunk& chunk) {
  RowReader rows(csv, kMentionFieldCount);
  const std::vector<std::string_view>* fields = nullptr;
  while (rows.Next(fields)) {
    const auto& f = *fields;
    const auto gid = ParseUint64(f[Index(MentionField::kGlobalEventId)]);
    std::int64_t when = 0;
    const std::string_view source =
        f[Index(MentionField::kMentionSourceName)];
    if (!gid || source.empty() ||
        !FieldToInterval(f[Index(MentionField::kMentionTimeDate)], when)) {
      ++malformed_rows_;
      continue;
    }
    std::uint32_t event_ref = kUnknownEvent;
    if (const auto it = event_row_of_.find(*gid); it != event_row_of_.end()) {
      event_ref = it->second;
    } else if (const auto bit = base_event_row_of_.find(*gid);
               bit != base_event_row_of_.end()) {
      event_ref = bit->second | kBaseFlag;
    }
    chunk.mention_source.push_back(SourceIdForLocked(source, chunk));
    chunk.mention_interval.push_back(when);
    chunk.mention_event.push_back(event_ref);
    chunk.mention_event_gid.push_back(*gid);
  }
  malformed_rows_ += rows.errors().size();
}

void DeltaStore::PublishLocked(DeltaChunk&& chunk) {
  const auto cur = snapshot_.load(std::memory_order_acquire);
  // Copying the snapshot copies chunk *pointers* and the (tick-count
  // sized) offset tables — never rows. The new chunk is the only freshly
  // allocated row storage, so a tick costs O(new rows).
  auto next = std::make_shared<DeltaSnapshot>(*cur);
  next->generation_ = cur->generation_ + 1;
  next->malformed_rows_ = malformed_rows_;
  next->delta_events_ += chunk.event_interval.size();
  next->delta_mentions_ += chunk.mention_source.size();
  next->num_new_sources_ += static_cast<std::uint32_t>(
      chunk.new_sources.size());
  next->event_offset_.push_back(
      next->event_offset_.back() + chunk.event_interval.size());
  next->source_offset_.push_back(
      next->source_offset_.back() +
      static_cast<std::uint32_t>(chunk.new_sources.size()));
  next->chunks_.push_back(
      std::make_shared<const DeltaChunk>(std::move(chunk)));
  snapshot_.store(std::move(next), std::memory_order_release);
}

}  // namespace gdelt::stream
