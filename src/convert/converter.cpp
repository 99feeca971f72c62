#include "convert/converter.hpp"

#include <charconv>
#include <cstdio>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include <unistd.h>

#include "columnar/dictionary.hpp"
#include "columnar/table.hpp"
#include "convert/binary_format.hpp"
#include "convert/master_list.hpp"
#include "convert/wire_rows.hpp"
#include "io/crc32.hpp"
#include "io/file.hpp"
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

  void Append(const MentionRow& row) const {
    gid->Append<std::uint64_t>(row.gid);
    event_interval->Append<std::int32_t>(row.event_interval);
    mention_interval->Append<std::int32_t>(row.mention_interval);
    source_name->AppendString(row.source_name);
    confidence->Append<std::uint8_t>(row.confidence);
  }
};

MentionSpillColumns AddMentionSpillColumns(Table& t) {
  return {&t.AddColumn(spill_col::kGid, ColumnType::kU64),
          &t.AddColumn(spill_col::kEventInterval, ColumnType::kI32),
          &t.AddColumn(spill_col::kMentionInterval, ColumnType::kI32),
          &t.AddColumn(spill_col::kSourceName, ColumnType::kStr),
          &t.AddColumn(spill_col::kConfidence, ColumnType::kU8)};
}

/// Typed views of one mentions spill.
struct MentionSpillSpans {
  std::span<const std::uint64_t> gid;
  std::span<const std::int32_t> event_interval;
  std::span<const std::int32_t> mention_interval;
  const Column* source_name = nullptr;
  std::span<const std::uint8_t> confidence;

  MentionRow Row(std::size_t i) const {
    return {gid[i], event_interval[i], mention_interval[i],
            source_name->StringAt(i), confidence[i]};
  }

  static Result<MentionSpillSpans> Bind(const Table& t) {
    MentionSpillSpans s;
    GDELT_RETURN_IF_ERROR(t.Bind(spill_col::kGid, s.gid));
    GDELT_RETURN_IF_ERROR(t.Bind(spill_col::kEventInterval, s.event_interval));
    GDELT_RETURN_IF_ERROR(
        t.Bind(spill_col::kMentionInterval, s.mention_interval));
    GDELT_ASSIGN_OR_RETURN(
        s.source_name,
        t.CheckedColumn(spill_col::kSourceName, ColumnType::kStr));
    GDELT_RETURN_IF_ERROR(t.Bind(spill_col::kConfidence, s.confidence));
    return s;
  }
};

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
  const EventColumns ec = AddEventColumns(spill);
  RowDecoder<EventRow> rows(csv);
  for (EventRow row; rows.Next(row); ++rec.rows) {
    if (row.source_url.empty()) ++rec.missing_url;
    ec.Append(row);
  }
  rec.malformed = rows.malformed();
  return rec;
}

/// Parses one mentions archive's CSV into a spill table. Event-row and
/// source-id resolution (which need global state) happen at merge time.
ArchiveRecord ParseMentionsCsv(std::string_view csv, Table& spill) {
  ArchiveRecord rec;
  rec.kind = 'm';
  const MentionSpillColumns sc = AddMentionSpillColumns(spill);
  RowDecoder<MentionRow> rows(csv);
  for (MentionRow row; rows.Next(row); ++rec.rows) sc.Append(row);
  rec.malformed = rows.malformed();
  return rec;
}

std::string SpillPath(const std::string& spill_dir,
                      const std::string& file_name) {
  return spill_dir + "/" + file_name + ".spill";
}

/// Binds one archive's spill table with Spans::Bind. A
/// foreign, damaged or older-layout spill must abort the merge, not crash
/// it: DataLoss, naming the spill.
template <typename Spans>
Result<Spans> BindSpill(const Table& spill, const std::string& path) {
  auto spans = Spans::Bind(spill);
  if (spans.ok()) return spans;
  return status::DataLoss("spill file '" + path +
                          "': " + spans.status().message());
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
  const EventColumns ec = AddEventColumns(events);
  std::unordered_map<std::uint64_t, std::uint32_t> event_row_of;
  for (const MasterEntry* entry : export_archives) {
    if (resumed.corrupt.count(entry->file_name) != 0) continue;
    const std::string path = SpillPath(spill_dir, entry->file_name);
    if (!FileExists(path)) continue;  // archive went corrupt this run
    GDELT_ASSIGN_OR_RETURN(Table spill, Table::ReadFromFile(path));
    GDELT_ASSIGN_OR_RETURN(const auto rows,
                           BindSpill<EventSpans>(spill, path));
    for (std::size_t i = 0; i < rows.global_id.size(); ++i) {
      const auto row = static_cast<std::uint32_t>(events.num_rows());
      if (!event_row_of.emplace(rows.global_id[i], row).second) {
        ++report.malformed_rows;  // duplicate event id
        continue;
      }
      ec.Append(rows.Row(i));
    }
  }
  report.event_rows = events.num_rows();
  merge_events_span.Finish();

  trace::Span merge_mentions_span("convert.merge_mentions");
  Table mentions;
  const MentionColumns mc = AddMentionColumns(mentions);
  StringDictionary sources;
  // Events whose recorded time postdates one of their article captures
  // (Table II row 4). Flag per dense event row, counted once per event.
  std::vector<bool> future_dated(events.num_rows(), false);
  for (const MasterEntry* entry : mention_archives) {
    if (resumed.corrupt.count(entry->file_name) != 0) continue;
    const std::string path = SpillPath(spill_dir, entry->file_name);
    if (!FileExists(path)) continue;
    GDELT_ASSIGN_OR_RETURN(Table spill, Table::ReadFromFile(path));
    GDELT_ASSIGN_OR_RETURN(const auto rows,
                           BindSpill<MentionSpillSpans>(spill, path));
    for (std::size_t i = 0; i < rows.gid.size(); ++i) {
      const MentionRow row = rows.Row(i);
      std::uint32_t event_row = kOrphanEventRow;
      const auto it = event_row_of.find(row.gid);
      if (it != event_row_of.end()) {
        event_row = it->second;
        if (row.mention_interval < row.event_interval &&
            !future_dated[event_row]) {
          future_dated[event_row] = true;
          ++report.future_event_dates;
        }
      } else {
        ++report.orphan_mentions;
      }
      mc.Append(row, event_row, sources.GetOrAdd(row.source_name));
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
