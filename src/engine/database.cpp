#include "engine/database.hpp"

#include <algorithm>
#include <limits>

#include "convert/binary_format.hpp"
#include "parallel/morsel.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace gdelt::engine {
namespace {

using convert::kOrphanEventRow;

/// Column `name` of `table`, checked to have type `type`. A miss means the
/// database was written by a converter with another column set.
Result<const Column*> CheckColumn(const Table& table, std::string_view name,
                                  ColumnType type) {
  const Column* col = table.FindColumn(name);
  if (!col) {
    return status::DataLoss("missing column '" + std::string(name) +
                            "' (re-run gdelt_convert)");
  }
  if (col->type() != type) {
    return status::DataLoss("column '" + std::string(name) +
                            "' has unexpected type (re-run gdelt_convert)");
  }
  return col;
}

/// Fetches a typed span from a table column, validating name and type.
template <typename T>
Status BindSpan(const Table& table, std::string_view name,
                std::span<const T>& out) {
  GDELT_ASSIGN_OR_RETURN(
      const Column* col,
      CheckColumn(table, name, column_detail::TypeTag<T>::value));
  out = col->Values<T>();
  return Status::Ok();
}

/// Builds the event -> distinct-source index: one pool pass where each
/// morsel sorts/dedups its contiguous event range into a private buffer,
/// then a prefix sum over per-event counts and a parallel copy into the
/// final CSR arrays. Deterministic: output depends only on the data.
CsrSetIndex BuildEventDistinctSources(const CsrIndex& by_event,
                                      std::span<const std::uint32_t> src,
                                      std::size_t num_events) {
  CsrSetIndex index;
  index.offsets.assign(num_events + 1, 0);

  // One buffer per morsel, indexed by its first event: the layout is
  // fixed by `rows` alone, whichever worker runs each morsel.
  const std::size_t rows = parallel::MorselRows();
  std::vector<std::vector<std::uint32_t>> locals((num_events + rows - 1) /
                                                 rows);
  parallel::PoolParallelFor(
      num_events,
      [&](IndexRange r, std::size_t) {
        auto& local = locals[r.begin / rows];
        // At most one value per mention row: one allocation per morsel.
        local.reserve(by_event.offsets[r.end] - by_event.offsets[r.begin]);
        std::vector<std::uint32_t> scratch;
        for (std::size_t e = r.begin; e < r.end; ++e) {
          scratch.clear();
          for (const std::uint64_t row :
               by_event.RowsOf(static_cast<std::uint32_t>(e))) {
            scratch.push_back(src[row]);
          }
          std::sort(scratch.begin(), scratch.end());
          scratch.erase(std::unique(scratch.begin(), scratch.end()),
                        scratch.end());
          index.offsets[e + 1] = static_cast<std::uint32_t>(scratch.size());
          local.insert(local.end(), scratch.begin(), scratch.end());
        }
      },
      rows);
  for (std::size_t e = 0; e < num_events; ++e) {
    index.offsets[e + 1] += index.offsets[e];
  }
  index.values.resize(index.offsets[num_events]);
  parallel::PoolParallelFor(
      locals.size(),
      [&](IndexRange r, std::size_t) {
        for (std::size_t m = r.begin; m < r.end; ++m) {
          std::copy(locals[m].begin(), locals[m].end(),
                    index.values.begin() +
                        static_cast<std::ptrdiff_t>(index.offsets[m * rows]));
        }
      },
      /*morsel_rows=*/1);
  return index;
}

}  // namespace

const CsrSetIndex& Database::event_distinct_sources() const {
  std::call_once(lazy_->distinct_sources_once, [this] {
    lazy_->distinct_sources = BuildEventDistinctSources(
        mentions_by_event_, mention_source_id_, num_events_);
  });
  return lazy_->distinct_sources;
}

Result<Database> Database::Load(const std::string& dir) {
  Database db;
  GDELT_ASSIGN_OR_RETURN(
      db.events_,
      Table::ReadFromFile(dir + "/" + std::string(convert::kEventsTableFile)));
  GDELT_ASSIGN_OR_RETURN(db.mentions_,
                         Table::ReadFromFile(
                             dir + "/" + std::string(convert::kMentionsTableFile)));
  GDELT_ASSIGN_OR_RETURN(
      db.sources_, StringDictionary::ReadFromFile(
                       dir + "/" + std::string(convert::kSourcesDictFile)));

  db.num_events_ = db.events_.num_rows();
  db.num_mentions_ = db.mentions_.num_rows();
  // The indexes hold mention rows as u32 (CsrIndex).
  if (db.num_mentions_ > std::numeric_limits<std::uint32_t>::max()) {
    return status::DataLoss(StrFormat(
        "database '%s' has %zu mention rows; at most 2^32 - 1 are supported",
        dir.c_str(), db.num_mentions_));
  }

  namespace ec = convert::events_col;
  namespace mc = convert::mentions_col;
  GDELT_RETURN_IF_ERROR(
      BindSpan(db.mentions_, mc::kEventRow, db.mention_event_row_));
  GDELT_RETURN_IF_ERROR(
      BindSpan(db.mentions_, mc::kEventInterval, db.mention_event_interval_));
  GDELT_RETURN_IF_ERROR(
      BindSpan(db.mentions_, mc::kMentionInterval, db.mention_interval_));
  GDELT_RETURN_IF_ERROR(
      BindSpan(db.mentions_, mc::kSourceId, db.mention_source_id_));
  GDELT_RETURN_IF_ERROR(
      BindSpan(db.mentions_, mc::kConfidence, db.mention_confidence_));
  GDELT_RETURN_IF_ERROR(
      BindSpan(db.events_, ec::kGlobalId, db.event_global_id_));
  GDELT_RETURN_IF_ERROR(
      BindSpan(db.events_, ec::kAddedInterval, db.event_added_interval_));
  GDELT_RETURN_IF_ERROR(BindSpan(db.events_, ec::kCountry, db.event_country_));
  GDELT_RETURN_IF_ERROR(BindSpan(db.events_, ec::kAvgTone, db.event_tone_));
  GDELT_RETURN_IF_ERROR(
      BindSpan(db.events_, ec::kGoldstein, db.event_goldstein_));
  GDELT_RETURN_IF_ERROR(
      BindSpan(db.events_, ec::kQuadClass, db.event_quad_class_));
  GDELT_RETURN_IF_ERROR(
      CheckColumn(db.events_, ec::kSourceUrl, ColumnType::kStr).status());

  // Referential integrity: every non-orphan event_row must be in range and
  // every source id must be in the dictionary.
  for (const std::uint32_t row : db.mention_event_row_) {
    if (row != kOrphanEventRow && row >= db.num_events_) {
      return status::DataLoss("mention references event row out of range");
    }
  }
  for (const std::uint32_t sid : db.mention_source_id_) {
    if (sid >= db.sources_.size()) {
      return status::DataLoss("mention references unknown source id");
    }
  }

  // Derived: source -> country via the TLD heuristic (Section VI-C).
  db.source_country_.resize(db.sources_.size());
  parallel::PoolParallelFor(
      db.sources_.size(), [&](IndexRange r, std::size_t) {
        for (std::size_t i = r.begin; i < r.end; ++i) {
          const auto country = CountryOfSourceDomain(
              db.sources_.At(static_cast<std::uint32_t>(i)));
          db.source_country_[i] = country.value_or(kNoCountry);
        }
      });

  // Orphan mentions go into an extra trailing bucket so keys stay dense.
  std::vector<std::uint32_t> event_keys(db.num_mentions_);
  parallel::PoolParallelFor(db.num_mentions_, [&](IndexRange r, std::size_t) {
    for (std::size_t i = r.begin; i < r.end; ++i) {
      const std::uint32_t row = db.mention_event_row_[i];
      event_keys[i] =
          row == kOrphanEventRow ? static_cast<std::uint32_t>(db.num_events_)
                                 : row;
    }
  });
  db.mentions_by_event_ = BuildCsrIndex(event_keys, db.num_events_ + 1);
  db.mentions_by_source_ =
      BuildCsrIndex(db.mention_source_id_, db.sources_.size());

  // Derived: true article counts per event, and the whole-table totals
  // behind the source and country rankings, paid once here instead of by
  // every query that ranks. Both are the lengths of the index lists.
  db.event_article_count_.resize(db.num_events_);
  for (std::uint32_t e = 0; e < db.num_events_; ++e) {
    db.event_article_count_[e] =
        static_cast<std::uint32_t>(db.mentions_by_event_.CountOf(e));
  }
  db.source_article_count_.resize(db.sources_.size());
  for (std::uint32_t s = 0; s < db.sources_.size(); ++s) {
    db.source_article_count_[s] = db.mentions_by_source_.CountOf(s);
  }
  const std::size_t nc = Countries().size();
  db.country_article_count_.assign(nc, 0);
  for (std::size_t s = 0; s < db.source_country_.size(); ++s) {
    const std::uint16_t c = db.source_country_[s];
    if (c != kNoCountry) {
      db.country_article_count_[c] += db.source_article_count_[s];
    }
  }
  db.country_event_count_ = parallel::PoolHistogram(
      {0, db.num_events_}, nc, [&](std::size_t i) -> std::size_t {
        const std::uint16_t c = db.event_country_[i];
        return c == kNoCountry ? SIZE_MAX : c;
      });

  // Zone map of the capture interval, one block per kZoneRows rows; the
  // timeline bounds fold out of it.
  const std::size_t zones = (db.num_mentions_ + kZoneRows - 1) / kZoneRows;
  db.zone_min_interval_.resize(zones);
  db.zone_max_interval_.resize(zones);
  parallel::PoolParallelFor(zones, [&](IndexRange r, std::size_t) {
    for (std::size_t z = r.begin; z < r.end; ++z) {
      const auto block = db.mention_interval_.subspan(
          z * kZoneRows,
          std::min(kZoneRows, db.num_mentions_ - z * kZoneRows));
      const auto [lo, hi] = std::minmax_element(block.begin(), block.end());
      db.zone_min_interval_[z] = *lo;
      db.zone_max_interval_[z] = *hi;
    }
  });
  if (zones > 0) {
    db.first_interval_ = *std::min_element(db.zone_min_interval_.begin(),
                                           db.zone_min_interval_.end());
    db.last_interval_ = *std::max_element(db.zone_max_interval_.begin(),
                                          db.zone_max_interval_.end());
  }

  GDELT_LOG(kInfo, StrFormat("database loaded: %zu events, %zu mentions, "
                             "%u sources, %.1f MiB of tables and indexes",
                             db.num_events_, db.num_mentions_,
                             db.sources_.size(),
                             static_cast<double>(db.MemoryBytes()) /
                                 (1024.0 * 1024.0)));
  return db;
}

std::size_t Database::MemoryBytes() const noexcept {
  std::size_t total = events_.MemoryBytes() + mentions_.MemoryBytes();
  total += source_country_.capacity() * sizeof(std::uint16_t);
  total += event_article_count_.capacity() * sizeof(std::uint32_t);
  total += (source_article_count_.capacity() +
            country_event_count_.capacity() +
            country_article_count_.capacity()) *
           sizeof(std::uint64_t);
  total += (zone_min_interval_.capacity() + zone_max_interval_.capacity()) *
           sizeof(std::int32_t);
  total += mentions_by_event_.MemoryBytes() + mentions_by_source_.MemoryBytes();
  if (lazy_) total += lazy_->distinct_sources.MemoryBytes();
  return total;
}

}  // namespace gdelt::engine
