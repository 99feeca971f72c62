#include "convert/converter.hpp"

#include <charconv>
#include <cstdio>
#include <limits>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include <unistd.h>

#include "columnar/dictionary.hpp"
#include "columnar/table.hpp"
#include "convert/binary_format.hpp"
#include "convert/master_list.hpp"
#include "csv/tsv.hpp"
#include "gtime/timestamp.hpp"
#include "io/crc32.hpp"
#include "io/file.hpp"
#include "schema/countries.hpp"
#include "schema/gdelt_schema.hpp"
#include "trace/trace.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace gdelt::convert {
namespace {

constexpr std::string_view kJournalFile = "convert.journal";
constexpr std::string_view kSpillDir = ".convert_spill";

/// Layout of the spill tables, recorded in the journal header so a resume
/// never merges spills of another layout. Version 1 (i64 intervals, URL
/// columns) wrote a 0/1 URL flag in this field.
constexpr std::string_view kSpillSchema = "2";

/// Parses a 14-digit GDELT timestamp field into the i32 interval the
/// tables store. Returns false (and leaves `out` unchanged) on malformed
/// input or an interval outside the i32 range.
bool FieldToInterval(std::string_view field, std::int32_t& out) {
  const auto parsed = ParseGdeltTimestamp(field);
  if (!parsed.ok()) return false;
  const IntervalId interval = IntervalOfCivil(parsed.value());
  if (interval < std::numeric_limits<std::int32_t>::min() ||
      interval > std::numeric_limits<std::int32_t>::max()) {
    return false;
  }
  out = static_cast<std::int32_t>(interval);
  return true;
}

/// True if the Events "Day" field (YYYYMMDD) is a valid date. The day is
/// not stored, but a row with a bad one is malformed (Table II).
bool ValidDay(std::string_view field) {
  const auto day = ParseUint64(field);
  if (!day || *day < 19000101 || *day > 99991231) return false;
  return ParseGdeltTimestamp(*day * 1000000ull).ok();  // midnight
}

struct EventColumns {
  Column* global_id;
  Column* added_interval;
  Column* country;
  Column* goldstein;
  Column* avg_tone;
  Column* quad_class;
  Column* source_url;
};

EventColumns AddEventColumns(Table& table) {
  EventColumns ec{};
  ec.global_id = &table.AddColumn(std::string(events_col::kGlobalId),
                                  ColumnType::kU64);
  ec.added_interval = &table.AddColumn(
      std::string(events_col::kAddedInterval), ColumnType::kI32);
  ec.country =
      &table.AddColumn(std::string(events_col::kCountry), ColumnType::kU16);
  ec.goldstein = &table.AddColumn(std::string(events_col::kGoldstein),
                                  ColumnType::kF64);
  ec.avg_tone =
      &table.AddColumn(std::string(events_col::kAvgTone), ColumnType::kF64);
  ec.quad_class = &table.AddColumn(std::string(events_col::kQuadClass),
                                   ColumnType::kU8);
  ec.source_url = &table.AddColumn(std::string(events_col::kSourceUrl),
                                   ColumnType::kStr);
  return ec;
}

struct MentionColumns {
  Column* event_row;
  Column* event_interval;
  Column* mention_interval;
  Column* source_id;
  Column* confidence;
};

MentionColumns AddMentionColumns(Table& table) {
  MentionColumns mc{};
  mc.event_row = &table.AddColumn(std::string(mentions_col::kEventRow),
                                  ColumnType::kU32);
  mc.event_interval = &table.AddColumn(
      std::string(mentions_col::kEventInterval), ColumnType::kI32);
  mc.mention_interval = &table.AddColumn(
      std::string(mentions_col::kMentionInterval), ColumnType::kI32);
  mc.source_id = &table.AddColumn(std::string(mentions_col::kSourceId),
                                  ColumnType::kU32);
  mc.confidence = &table.AddColumn(std::string(mentions_col::kConfidence),
                                   ColumnType::kU8);
  return mc;
}

// Mention spill columns: parsed fields with the source still a string (the
// dictionary is built deterministically at merge time, in master order).
namespace spill_col {
constexpr std::string_view kGid = "gid";
constexpr std::string_view kEventInterval = "event_interval";
constexpr std::string_view kMentionInterval = "mention_interval";
constexpr std::string_view kSourceName = "source_name";
constexpr std::string_view kConfidence = "confidence";
}  // namespace spill_col

struct MentionSpillColumns {
  Column* gid;
  Column* event_interval;
  Column* mention_interval;
  Column* source_name;
  Column* confidence;
};

MentionSpillColumns AddMentionSpillColumns(Table& table) {
  MentionSpillColumns sc{};
  sc.gid = &table.AddColumn(std::string(spill_col::kGid), ColumnType::kU64);
  sc.event_interval = &table.AddColumn(
      std::string(spill_col::kEventInterval), ColumnType::kI32);
  sc.mention_interval = &table.AddColumn(
      std::string(spill_col::kMentionInterval), ColumnType::kI32);
  sc.source_name = &table.AddColumn(std::string(spill_col::kSourceName),
                                    ColumnType::kStr);
  sc.confidence = &table.AddColumn(std::string(spill_col::kConfidence),
                                   ColumnType::kU8);
  return sc;
}

/// Per-archive parse outcome; persisted in the journal so a resumed run
/// restores the same report counters without re-parsing.
struct ArchiveRecord {
  char kind = '?';  ///< 'e' events, 'm' mentions
  std::uint64_t rows = 0;
  std::uint64_t malformed = 0;
  std::uint32_t missing_url = 0;
};

// ---- Journal ----------------------------------------------------------
//
// Append-only text file in the output directory. Each line is
// "<crc32-8hex> <body>\n" where the CRC covers the body, so a line torn
// by kill -9 is detected and replay stops there. Bodies:
//   begin <master-list crc32> <spill schema>
//   archive <e|m> <rows> <malformed> <missing_url> <file name>
//   corrupt <file name>

class Journal {
 public:
  ~Journal() { Close(); }

  Status Open(const std::string& path) {
    file_ = std::fopen(path.c_str(), "ab");
    if (!file_) {
      return status::IoError("cannot open journal '" + path + "'");
    }
    path_ = path;
    return Status::Ok();
  }

  Status Append(const std::string& body) {
    if (!file_) return status::FailedPrecondition("journal not open");
    const std::string line = StrFormat("%08x ", Crc32(body)) + body + "\n";
    if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
        std::fflush(file_) != 0) {
      return status::IoError("journal append failed on '" + path_ + "'");
    }
    ::fsync(::fileno(file_));  // an unjournaled archive is merely redone
    return Status::Ok();
  }

  void Close() {
    if (file_) std::fclose(file_);
    file_ = nullptr;
  }

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
};

/// Journal replay result: which archives an earlier run already handled.
struct JournalState {
  bool header_ok = false;
  std::unordered_map<std::string, ArchiveRecord> done;
  std::unordered_set<std::string> corrupt;
};

std::optional<std::uint32_t> ParseHex32(std::string_view s) {
  std::uint32_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(s.data(), s.data() + s.size(), v, 16);
  if (ec != std::errc() || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

/// Replays a journal left by an interrupted run. Tolerant by design:
/// any torn or mismatched content just means "start that work over".
JournalState ReplayJournal(const std::string& path,
                           std::uint32_t master_crc) {
  JournalState state;
  if (!FileExists(path)) return state;
  auto text = ReadWholeFile(path);
  if (!text.ok()) return state;
  bool first = true;
  for (std::string_view rest = *text; !rest.empty();) {
    const auto nl = rest.find('\n');
    if (nl == std::string_view::npos) break;  // torn tail line
    const std::string_view line = rest.substr(0, nl);
    rest = rest.substr(nl + 1);
    if (line.size() < 10 || line[8] != ' ') break;
    const auto crc = ParseHex32(line.substr(0, 8));
    const std::string_view body = line.substr(9);
    if (!crc || *crc != Crc32(body)) break;  // torn or corrupted line
    const auto fields = SplitView(body, ' ');
    if (first) {
      first = false;
      // Header must match this run's input and spill layout exactly;
      // anything else is a journal from a different conversion.
      if (fields.size() != 3 || fields[0] != "begin" ||
          ParseUint64(fields[1]).value_or(~0ull) != master_crc ||
          fields[2] != kSpillSchema) {
        return state;
      }
      state.header_ok = true;
      continue;
    }
    if (fields.size() == 6 && fields[0] == "archive" &&
        fields[1].size() == 1 &&
        (fields[1][0] == 'e' || fields[1][0] == 'm')) {
      ArchiveRecord rec;
      rec.kind = fields[1][0];
      const auto rows = ParseUint64(fields[2]);
      const auto malformed = ParseUint64(fields[3]);
      const auto missing = ParseUint64(fields[4]);
      if (!rows || !malformed || !missing) break;
      rec.rows = *rows;
      rec.malformed = *malformed;
      rec.missing_url = static_cast<std::uint32_t>(*missing);
      state.done.emplace(std::string(fields[5]), rec);
    } else if (fields.size() == 2 && fields[0] == "corrupt") {
      state.corrupt.insert(std::string(fields[1]));
    } else {
      break;  // unknown record: stop trusting the rest
    }
  }
  return state;
}

// ---- Per-archive parsing into spill tables ----------------------------

/// Parses one export archive's CSV into a spill table. Duplicate global
/// ids are NOT resolved here — dedup needs global order and happens at
/// merge time so resumed runs stay deterministic.
ArchiveRecord ParseEventsCsv(std::string_view csv, Table& spill) {
  ArchiveRecord rec;
  rec.kind = 'e';
  EventColumns ec = AddEventColumns(spill);
  RowReader rows(csv, kEventFieldCount);
  const std::vector<std::string_view>* fields = nullptr;
  while (rows.Next(fields)) {
    const auto& f = *fields;
    const auto gid = ParseUint64(f[Index(EventField::kGlobalEventId)]);
    std::int32_t added_interval = 0;
    if (!gid || !ValidDay(f[Index(EventField::kDay)]) ||
        !FieldToInterval(f[Index(EventField::kDateAdded)], added_interval)) {
      ++rec.malformed;
      continue;
    }
    const std::string_view url = f[Index(EventField::kSourceUrl)];
    if (url.empty()) ++rec.missing_url;

    CountryId country = kNoCountry;
    const std::string_view fips = f[Index(EventField::kActionGeoCountryCode)];
    if (!fips.empty()) {
      if (const auto c = CountryByFips(fips)) country = *c;
    }
    ec.global_id->Append<std::uint64_t>(*gid);
    ec.added_interval->Append<std::int32_t>(added_interval);
    ec.country->Append<std::uint16_t>(country);
    ec.goldstein->Append<double>(
        ParseDouble(f[Index(EventField::kGoldsteinScale)]).value_or(0.0));
    ec.avg_tone->Append<double>(
        ParseDouble(f[Index(EventField::kAvgTone)]).value_or(0.0));
    ec.quad_class->Append<std::uint8_t>(static_cast<std::uint8_t>(
        ParseUint64(f[Index(EventField::kQuadClass)]).value_or(0)));
    ec.source_url->AppendString(url);
    ++rec.rows;
  }
  rec.malformed += rows.errors().size();
  return rec;
}

/// Parses one mentions archive's CSV into a spill table. Event-row and
/// source-id resolution (which need global state) happen at merge time.
ArchiveRecord ParseMentionsCsv(std::string_view csv, Table& spill) {
  ArchiveRecord rec;
  rec.kind = 'm';
  MentionSpillColumns sc = AddMentionSpillColumns(spill);
  RowReader rows(csv, kMentionFieldCount);
  const std::vector<std::string_view>* fields = nullptr;
  while (rows.Next(fields)) {
    const auto& f = *fields;
    const auto gid = ParseUint64(f[Index(MentionField::kGlobalEventId)]);
    std::int32_t event_interval = 0;
    std::int32_t mention_interval = 0;
    if (!gid ||
        !FieldToInterval(f[Index(MentionField::kEventTimeDate)],
                         event_interval) ||
        !FieldToInterval(f[Index(MentionField::kMentionTimeDate)],
                         mention_interval)) {
      ++rec.malformed;
      continue;
    }
    const std::string_view source_name =
        f[Index(MentionField::kMentionSourceName)];
    if (source_name.empty()) {
      ++rec.malformed;
      continue;
    }
    sc.gid->Append<std::uint64_t>(*gid);
    sc.event_interval->Append<std::int32_t>(event_interval);
    sc.mention_interval->Append<std::int32_t>(mention_interval);
    sc.source_name->AppendString(source_name);
    sc.confidence->Append<std::uint8_t>(static_cast<std::uint8_t>(
        ParseUint64(f[Index(MentionField::kConfidence)]).value_or(0)));
    ++rec.rows;
  }
  rec.malformed += rows.errors().size();
  return rec;
}

std::string SpillPath(const std::string& spill_dir,
                      const std::string& file_name) {
  return spill_dir + "/" + file_name + ".spill";
}

/// Fetches a required spill column or fails with DataLoss (a foreign,
/// damaged or older-layout spill must abort the merge, not crash it).
Result<const Column*> SpillColumn(const Table& spill, std::string_view name,
                                  ColumnType type,
                                  const std::string& spill_path) {
  const Column* col = spill.FindColumn(name);
  if (!col || col->type() != type) {
    return status::DataLoss("spill file '" + spill_path +
                            "' lacks column '" + std::string(name) + "'");
  }
  return col;
}

/// The values of a required fixed-width spill column of element type T.
template <typename T>
Result<std::span<const T>> SpillValues(const Table& spill,
                                       std::string_view name,
                                       const std::string& spill_path) {
  GDELT_ASSIGN_OR_RETURN(
      const Column* col,
      SpillColumn(spill, name, column_detail::TypeTag<T>::value, spill_path));
  return col->Values<T>();
}

}  // namespace

std::string ConvertReport::ToText() const {
  std::string out;
  out += "GDELT conversion report\n";
  out += "=======================\n";
  out += StrFormat("archives processed:              %llu\n",
                   static_cast<unsigned long long>(archives_processed));
  out += StrFormat("event rows:                      %llu\n",
                   static_cast<unsigned long long>(event_rows));
  out += StrFormat("mention rows:                    %llu\n",
                   static_cast<unsigned long long>(mention_rows));
  out += StrFormat("distinct sources:                %u\n", num_sources);
  out += "\nProblems found during dataset analysis (cf. paper Table II)\n";
  out += StrFormat("missformatted master entries:    %u\n",
                   malformed_master_entries);
  out += StrFormat("missing archives:                %u\n", missing_archives);
  out += StrFormat("missing event source URL:        %u\n",
                   missing_event_source_url);
  out += StrFormat("event date after first article:  %u\n",
                   future_event_dates);
  out += StrFormat("corrupt archives:                %u\n", corrupt_archives);
  out += StrFormat("malformed rows:                  %llu\n",
                   static_cast<unsigned long long>(malformed_rows));
  out += StrFormat("orphan mentions:                 %llu\n",
                   static_cast<unsigned long long>(orphan_mentions));
  out += "\nOperational robustness\n";
  out += StrFormat("fetch retries:                   %llu\n",
                   static_cast<unsigned long long>(fetch_retries));
  out += StrFormat("quarantined archives:            %u\n",
                   quarantined_archives);
  out += StrFormat("resumed (journaled) archives:    %u\n", resumed_archives);
  for (const auto& note : notes) {
    out += "note: " + note + "\n";
  }
  return out;
}

Result<ConvertReport> ConvertDataset(const ConvertOptions& options) {
  TRACE_SPAN("convert.dataset");
  ConvertReport report;

  trace::Span master_span("convert.master_list");
  GDELT_ASSIGN_OR_RETURN(
      const std::string master_text,
      ReadWholeFile(options.input_dir + "/masterfilelist.txt"));
  const std::uint32_t master_crc = Crc32(master_text);
  MasterList master = ParseMasterList(master_text);
  master_span.Finish();
  report.malformed_master_entries = master.malformed_entries;
  for (const auto& sample : master.malformed_samples) {
    report.notes.push_back("malformed master entry: '" + sample + "'");
  }

  GDELT_RETURN_IF_ERROR(MakeDirectories(options.output_dir));
  const std::string journal_path =
      options.output_dir + "/" + std::string(kJournalFile);
  const std::string spill_dir =
      options.output_dir + "/" + std::string(kSpillDir);

  JournalState resumed;
  if (options.resume) {
    resumed = ReplayJournal(journal_path, master_crc);
    if (!resumed.header_ok && FileExists(journal_path)) {
      report.notes.push_back(
          "resume requested but journal does not match this input; "
          "starting fresh");
    }
  }
  if (!resumed.header_ok) {
    // Fresh conversion: stale journal or spills belong to another run.
    GDELT_RETURN_IF_ERROR(RemoveAll(journal_path));
    GDELT_RETURN_IF_ERROR(RemoveAll(spill_dir));
  }
  GDELT_RETURN_IF_ERROR(MakeDirectories(spill_dir));

  Journal journal;
  GDELT_RETURN_IF_ERROR(journal.Open(journal_path));
  if (!resumed.header_ok) {
    GDELT_RETURN_IF_ERROR(journal.Append(StrFormat(
        "begin %llu %s", static_cast<unsigned long long>(master_crc),
        std::string(kSpillSchema).c_str())));
  }

  // Check archive availability once; classify into processing lists.
  // Missing archives are counted per dataset chunk (distinct timestamp
  // prefix), matching the paper's "missing archives for dataset chunks".
  // Archives the journal already settled are never re-statted: their
  // outcome is fixed even if the mirror changed under us.
  std::vector<const MasterEntry*> export_archives;
  std::vector<const MasterEntry*> mention_archives;
  std::set<std::string_view> missing_chunk_stamps;
  for (const auto& entry : master.entries) {
    const bool settled = resumed.done.count(entry.file_name) != 0 ||
                         resumed.corrupt.count(entry.file_name) != 0;
    if (!settled && !FileExists(options.input_dir + "/" + entry.file_name)) {
      const std::string_view name = entry.file_name;
      missing_chunk_stamps.insert(name.substr(0, name.find('.')));
      continue;
    }
    switch (entry.kind) {
      case ArchiveKind::kExport: export_archives.push_back(&entry); break;
      case ArchiveKind::kMentions: mention_archives.push_back(&entry); break;
      case ArchiveKind::kOther:
        report.notes.push_back("unrecognized archive name: " +
                               entry.file_name);
        break;
    }
  }
  report.missing_archives =
      static_cast<std::uint32_t>(missing_chunk_stamps.size());

  ChunkFetcher fetcher(options.fetch);

  // Acquires, parses and spills one archive (or restores its journaled
  // outcome). Only bookkeeping differs between the two archive kinds.
  auto process = [&](const MasterEntry& entry, char kind) -> Status {
    if (const auto it = resumed.done.find(entry.file_name);
        it != resumed.done.end()) {
      const ArchiveRecord& rec = it->second;
      ++report.archives_processed;
      ++report.resumed_archives;
      report.malformed_rows += rec.malformed;
      report.missing_event_source_url += rec.missing_url;
      return Status::Ok();
    }
    if (resumed.corrupt.count(entry.file_name) != 0) {
      ++report.corrupt_archives;
      report.notes.push_back("corrupt archive (journaled): " +
                             entry.file_name);
      return Status::Ok();
    }
    auto csv = fetcher.FetchCsv(
        options.input_dir, entry.file_name,
        options.verify_archive_checksums
            ? std::optional<std::uint32_t>(entry.crc32)
            : std::nullopt);
    if (!csv.ok()) {
      ++report.corrupt_archives;
      report.notes.push_back(csv.status().ToString());
      return journal.Append("corrupt " + entry.file_name);
    }
    Table spill;
    const ArchiveRecord rec = kind == 'e' ? ParseEventsCsv(*csv, spill)
                                          : ParseMentionsCsv(*csv, spill);
    // Spill first, then journal: an archive is "done" only once its spill
    // is durably on disk, so a crash between the two merely redoes it.
    GDELT_RETURN_IF_ERROR(spill.WriteToFileAtomic(
        SpillPath(spill_dir, entry.file_name)));
    GDELT_RETURN_IF_ERROR(journal.Append(StrFormat(
        "archive %c %llu %llu %u %s", kind,
        static_cast<unsigned long long>(rec.rows),
        static_cast<unsigned long long>(rec.malformed), rec.missing_url,
        entry.file_name.c_str())));
    ++report.archives_processed;
    report.malformed_rows += rec.malformed;
    report.missing_event_source_url += rec.missing_url;
    return Status::Ok();
  };

  {
    TRACE_SPAN("convert.spill");
    for (const MasterEntry* entry : export_archives) {
      GDELT_RETURN_IF_ERROR(process(*entry, 'e'));
    }
    for (const MasterEntry* entry : mention_archives) {
      GDELT_RETURN_IF_ERROR(process(*entry, 'm'));
    }
  }

  // ---- Merge pass: spills (in master order) -> final tables ------------
  // Everything that needs global state lives here: duplicate-event
  // resolution, the source dictionary, event-row binding, orphan and
  // future-dated counting. The merge is a pure function of the spill set,
  // so interrupted and uninterrupted runs produce byte-identical tables.

  trace::Span merge_events_span("convert.merge_events");
  Table events;
  EventColumns ec = AddEventColumns(events);
  std::unordered_map<std::uint64_t, std::uint32_t> event_row_of;
  for (const MasterEntry* entry : export_archives) {
    if (resumed.corrupt.count(entry->file_name) != 0) continue;
    const std::string path = SpillPath(spill_dir, entry->file_name);
    if (!FileExists(path)) continue;  // archive went corrupt this run
    GDELT_ASSIGN_OR_RETURN(Table spill, Table::ReadFromFile(path));
    GDELT_ASSIGN_OR_RETURN(
        const auto gids,
        SpillValues<std::uint64_t>(spill, events_col::kGlobalId, path));
    GDELT_ASSIGN_OR_RETURN(
        const auto added,
        SpillValues<std::int32_t>(spill, events_col::kAddedInterval, path));
    GDELT_ASSIGN_OR_RETURN(
        const auto countries,
        SpillValues<std::uint16_t>(spill, events_col::kCountry, path));
    GDELT_ASSIGN_OR_RETURN(
        const auto goldstein,
        SpillValues<double>(spill, events_col::kGoldstein, path));
    GDELT_ASSIGN_OR_RETURN(
        const auto tones,
        SpillValues<double>(spill, events_col::kAvgTone, path));
    GDELT_ASSIGN_OR_RETURN(
        const auto quads,
        SpillValues<std::uint8_t>(spill, events_col::kQuadClass, path));
    GDELT_ASSIGN_OR_RETURN(
        const Column* urls,
        SpillColumn(spill, events_col::kSourceUrl, ColumnType::kStr, path));
    for (std::size_t i = 0; i < gids.size(); ++i) {
      const auto row = static_cast<std::uint32_t>(events.num_rows());
      if (!event_row_of.emplace(gids[i], row).second) {
        ++report.malformed_rows;  // duplicate event id
        continue;
      }
      ec.global_id->Append<std::uint64_t>(gids[i]);
      ec.added_interval->Append<std::int32_t>(added[i]);
      ec.country->Append<std::uint16_t>(countries[i]);
      ec.goldstein->Append<double>(goldstein[i]);
      ec.avg_tone->Append<double>(tones[i]);
      ec.quad_class->Append<std::uint8_t>(quads[i]);
      ec.source_url->AppendString(urls->StringAt(i));
    }
  }
  report.event_rows = events.num_rows();
  merge_events_span.Finish();

  trace::Span merge_mentions_span("convert.merge_mentions");
  Table mentions;
  MentionColumns mc = AddMentionColumns(mentions);
  StringDictionary sources;
  // Events whose recorded time postdates one of their article captures
  // (Table II row 4). Flag per dense event row, counted once per event.
  std::vector<bool> future_dated(events.num_rows(), false);
  for (const MasterEntry* entry : mention_archives) {
    if (resumed.corrupt.count(entry->file_name) != 0) continue;
    const std::string path = SpillPath(spill_dir, entry->file_name);
    if (!FileExists(path)) continue;
    GDELT_ASSIGN_OR_RETURN(Table spill, Table::ReadFromFile(path));
    GDELT_ASSIGN_OR_RETURN(
        const auto gids,
        SpillValues<std::uint64_t>(spill, spill_col::kGid, path));
    GDELT_ASSIGN_OR_RETURN(
        const auto event_ivs,
        SpillValues<std::int32_t>(spill, spill_col::kEventInterval, path));
    GDELT_ASSIGN_OR_RETURN(
        const auto mention_ivs,
        SpillValues<std::int32_t>(spill, spill_col::kMentionInterval, path));
    GDELT_ASSIGN_OR_RETURN(
        const auto confidences,
        SpillValues<std::uint8_t>(spill, spill_col::kConfidence, path));
    GDELT_ASSIGN_OR_RETURN(
        const Column* names,
        SpillColumn(spill, spill_col::kSourceName, ColumnType::kStr, path));
    for (std::size_t i = 0; i < gids.size(); ++i) {
      std::uint32_t event_row = kOrphanEventRow;
      const auto it = event_row_of.find(gids[i]);
      if (it != event_row_of.end()) {
        event_row = it->second;
        if (mention_ivs[i] < event_ivs[i] && !future_dated[event_row]) {
          future_dated[event_row] = true;
          ++report.future_event_dates;
        }
      } else {
        ++report.orphan_mentions;
      }
      mc.event_row->Append<std::uint32_t>(event_row);
      mc.event_interval->Append<std::int32_t>(event_ivs[i]);
      mc.mention_interval->Append<std::int32_t>(mention_ivs[i]);
      mc.source_id->Append<std::uint32_t>(
          sources.GetOrAdd(names->StringAt(i)));
      mc.confidence->Append<std::uint8_t>(confidences[i]);
    }
  }
  report.mention_rows = mentions.num_rows();
  report.num_sources = sources.size();
  merge_mentions_span.Finish();

  const FetchStats fetch_stats = fetcher.stats();
  report.fetch_retries = fetch_stats.retries;
  report.quarantined_archives =
      static_cast<std::uint32_t>(fetch_stats.quarantined);

  // ---- Write the binary database ---------------------------------------
  // Atomic renames: a reader (or a crash) never sees a torn table. The
  // journal and spills are only removed after all three tables landed, so
  // a failure anywhere below resumes straight into the merge.
  TRACE_SPAN("convert.write_tables");
  GDELT_RETURN_IF_ERROR(events.WriteToFileAtomic(
      options.output_dir + "/" + std::string(kEventsTableFile)));
  GDELT_RETURN_IF_ERROR(mentions.WriteToFileAtomic(
      options.output_dir + "/" + std::string(kMentionsTableFile)));
  GDELT_RETURN_IF_ERROR(sources.WriteToFileAtomic(
      options.output_dir + "/" + std::string(kSourcesDictFile)));
  GDELT_RETURN_IF_ERROR(WriteWholeFileAtomic(
      options.output_dir + "/" + std::string(kReportFile), report.ToText()));
  journal.Close();
  GDELT_RETURN_IF_ERROR(RemoveAll(journal_path));
  GDELT_RETURN_IF_ERROR(RemoveAll(spill_dir));
  GDELT_LOG(kInfo,
            StrFormat("converted %llu events, %llu mentions, %u sources",
                      static_cast<unsigned long long>(report.event_rows),
                      static_cast<unsigned long long>(report.mention_rows),
                      report.num_sources));
  return report;
}

}  // namespace gdelt::convert
