// One set of Table II row rules for convert and ingest.
//
// The decoder tests pin each defect DecodeRow names. The differential
// tests convert a set of archives and ingest the same archives, in master
// order, into a DeltaStore over no base, then check that the two paths
// keep the same rows with the same values: every events and mentions
// column, the order of new sources against sources.dict, and the
// malformed-row count against the conversion report. The first runs on a
// generated dataset plus one archive pair with planted defects; the
// second on one archive pair of planted rows mutated with a fixed seed.
#include "convert/wire_rows.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <utility>
#include <vector>

#include "columnar/dictionary.hpp"
#include "convert/binary_format.hpp"
#include "convert/converter.hpp"
#include "convert/fetcher.hpp"
#include "convert/master_list.hpp"
#include "gen/emit.hpp"
#include "gen/generator.hpp"
#include "gtime/timestamp.hpp"
#include "io/crc32.hpp"
#include "io/file.hpp"
#include "io/zipstore.hpp"
#include "stream/delta_store.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace gdelt::convert {
namespace {

using ::gdelt::testing::TempDir;
using Fields = std::vector<std::pair<std::size_t, std::string>>;

/// One wire row of `count` fields, empty except for `set`.
std::vector<std::string> WireFields(std::size_t count, const Fields& set) {
  std::vector<std::string> f(count);
  for (const auto& [i, v] : set) f[i] = v;
  return f;
}

std::string JoinRow(const std::vector<std::string>& fields,
                    std::string_view end = "\n") {
  std::string row;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) row += '\t';
    row += fields[i];
  }
  row += end;
  return row;
}

std::vector<std::string> Event(std::string gid, std::string day,
                               std::string added, std::string url,
                               std::string fips = "US") {
  return WireFields(kEventFieldCount,
                    {{Index(EventField::kGlobalEventId), std::move(gid)},
                     {Index(EventField::kDay), std::move(day)},
                     {Index(EventField::kQuadClass), "3"},
                     {Index(EventField::kGoldsteinScale), "-2.5"},
                     {Index(EventField::kAvgTone), "1.75"},
                     {Index(EventField::kActionGeoCountryCode),
                      std::move(fips)},
                     {Index(EventField::kDateAdded), std::move(added)},
                     {Index(EventField::kSourceUrl), std::move(url)}});
}

std::vector<std::string> Mention(std::string gid, std::string event_time,
                                 std::string mention_time,
                                 std::string source) {
  return WireFields(
      kMentionFieldCount,
      {{Index(MentionField::kGlobalEventId), std::move(gid)},
       {Index(MentionField::kEventTimeDate), std::move(event_time)},
       {Index(MentionField::kMentionTimeDate), std::move(mention_time)},
       {Index(MentionField::kMentionSourceName), std::move(source)},
       {Index(MentionField::kConfidence), "60"}});
}

template <typename Row>
RowDefect Decode(const std::vector<std::string>& fields, Row& row) {
  const std::vector<std::string_view> views(fields.begin(), fields.end());
  TimeMemo memo;
  return DecodeRow(views, row, memo);
}

TEST(WireRowsTest, DecodesAnEventRow) {
  EventRow row;
  // The row views its fields, so they must outlive the checks.
  const auto fields = Event("42", "20240229", "20240229231500", "http://a/b");
  ASSERT_EQ(Decode(fields, row), RowDefect::kNone);
  EXPECT_EQ(row.gid, 42u);
  EXPECT_EQ(row.country, *CountryByFips("US"));
  EXPECT_EQ(row.goldstein, -2.5);
  EXPECT_EQ(row.avg_tone, 1.75);
  EXPECT_EQ(row.quad_class, 3u);
  EXPECT_EQ(row.source_url, "http://a/b");
  EXPECT_EQ(row.added_interval,
            IntervalOfCivil(*ParseGdeltTimestamp("20240229231500")));
  const auto untagged = Event("43", "20240101", "20240101000000", "", "ZZ");
  ASSERT_EQ(Decode(untagged, row), RowDefect::kNone);
  EXPECT_EQ(row.country, kNoCountry);  // unknown FIPS code: untagged
  EXPECT_TRUE(row.source_url.empty());  // counted, not malformed
}

TEST(WireRowsTest, NamesEachEventDefect) {
  EventRow row;
  const std::string ok_time = "20240101000000";
  EXPECT_EQ(Decode(Event("", "20240101", ok_time, "u"), row),
            RowDefect::kBadGid);
  EXPECT_EQ(Decode(Event("4x2", "20240101", ok_time, "u"), row),
            RowDefect::kBadGid);
  for (const char* day : {"", "20241301", "20230229", "18991231", "2024011",
                          "2024O101"}) {
    EXPECT_EQ(Decode(Event("1", day, ok_time, "u"), row), RowDefect::kBadDay)
        << day;
  }
  for (const char* added : {"", "2024010100000", "202401010000000",
                            "20240101240000", "20240101x00000"}) {
    EXPECT_EQ(Decode(Event("1", "20240101", added, "u"), row),
              RowDefect::kBadTime)
        << added;
  }
  EXPECT_EQ(Decode(Event("1", "99991231", "99991231234500", "u"), row),
            RowDefect::kNone);  // year 9999 fits the i32 interval
}

TEST(WireRowsTest, NamesEachMentionDefect) {
  MentionRow row;
  const std::string t0 = "20240101000000";
  const std::string t1 = "20240101001500";
  const auto fields = Mention("7", t0, t1, "a.com");
  ASSERT_EQ(Decode(fields, row), RowDefect::kNone);
  EXPECT_EQ(row.gid, 7u);
  EXPECT_EQ(row.mention_interval - row.event_interval, 1);
  EXPECT_EQ(row.source_name, "a.com");
  EXPECT_EQ(row.confidence, 60u);
  EXPECT_EQ(Decode(Mention("-7", t0, t1, "a.com"), row), RowDefect::kBadGid);
  EXPECT_EQ(Decode(Mention("7", "2024010100000", t1, "a.com"), row),
            RowDefect::kBadTime);
  EXPECT_EQ(Decode(Mention("7", t0, "20240231001500", "a.com"), row),
            RowDefect::kBadTime);
  EXPECT_EQ(Decode(Mention("7", t0, t1, ""), row), RowDefect::kEmptySource);
}

TEST(WireRowsTest, RowDecoderCountsShortAndLongLines) {
  const std::string csv =
      JoinRow(Mention("1", "20240101000000", "20240101001500", "a.com")) +
      "too\tfew\n" +
      JoinRow(Mention("2", "20240101000000", "20240101001500", "")) +
      JoinRow(Mention("3", "20240101000000", "20240101001500", "b.com"),
              "\textra\r\n") +
      "\n" +  // a blank line is skipped, not counted
      JoinRow(Mention("4", "20240101000000", "20240101001500", "c.com"),
              "\r\n");
  RowDecoder<MentionRow> rows(csv);
  std::vector<std::uint64_t> kept;
  for (MentionRow row; rows.Next(row);) kept.push_back(row.gid);
  EXPECT_EQ(kept, (std::vector<std::uint64_t>{1, 4}));
  EXPECT_EQ(rows.malformed(), 3u);
}

TEST(WireRowsTest, RowDecoderReusesOnlyValidRepeatedTimes) {
  const std::string t0 = "20240101000000";
  const std::string t1 = "20240101001500";
  const std::string bad = "20240101006000";  // minute 60
  const std::string csv = JoinRow(Mention("1", t0, t1, "a.com")) +
                          JoinRow(Mention("2", t0, t1, "a.com")) +
                          JoinRow(Mention("3", bad, t1, "a.com")) +
                          JoinRow(Mention("4", bad, t1, "a.com")) +
                          JoinRow(Mention("5", t1, bad, "a.com")) +
                          JoinRow(Mention("6", t1, t0, "a.com"));
  RowDecoder<MentionRow> rows(csv);
  std::vector<std::pair<std::int32_t, std::int32_t>> kept;
  for (MentionRow row; rows.Next(row);) {
    kept.emplace_back(row.event_interval, row.mention_interval);
  }
  const std::int32_t i0 = static_cast<std::int32_t>(
      IntervalOfCivil(*ParseGdeltTimestamp(t0)));
  EXPECT_EQ(kept, (std::vector<std::pair<std::int32_t, std::int32_t>>{
                      {i0, i0 + 1}, {i0, i0 + 1}, {i0 + 1, i0}}));
  EXPECT_EQ(rows.malformed(), 3u);
}

// ---- convert vs ingest ---------------------------------------------------

/// Writes a one-entry stored zip and lists it in `master`.
void WriteArchive(const std::string& dir, const std::string& name,
                  const std::string& csv, std::string& master) {
  ZipWriter zip;
  const std::string path = dir + "/" + name + ".zip";
  ASSERT_TRUE(zip.Open(path).ok());
  ASSERT_TRUE(zip.AddEntry(name, csv).ok());
  ASSERT_TRUE(zip.Finish().ok());
  const auto bytes = ReadWholeFile(path);
  ASSERT_TRUE(bytes.ok());
  master += StrFormat("%zu %08x %s.zip\n", bytes->size(), Crc32(*bytes),
                      name.c_str());
}

/// The bytes of every value of one column, in row order; strings each
/// followed by a NUL so that their boundaries count too.
std::string ColumnBytes(const Column& col) {
  if (col.type() != ColumnType::kStr) {
    const auto b = col.bytes();
    return std::string(b.begin(), b.end());
  }
  std::string out;
  for (std::size_t i = 0; i < col.size(); ++i) {
    out += col.StringAt(i);
    out += '\0';
  }
  return out;
}

/// Expects `converted` to equal the concatenation of `part` over every
/// delta chunk, column by column and value by value.
void ExpectSameColumns(const Table& converted,
                       const stream::DeltaSnapshot& snap,
                       const Table stream::DeltaChunk::*part) {
  for (const auto& [name, col] : converted.columns()) {
    std::string delta;
    for (const auto& chunk : snap.chunks()) {
      const Table& table = (*chunk).*part;
      ASSERT_EQ(table.num_columns(), converted.num_columns());
      const Column* c = table.FindColumn(name);
      ASSERT_NE(c, nullptr) << name;
      ASSERT_EQ(c->type(), col.type()) << name;
      delta += ColumnBytes(*c);
    }
    EXPECT_TRUE(delta == ColumnBytes(col))
        << "column '" << name << "' differs between convert and ingest";
  }
}

/// Converts `raw` (a directory with masterfilelist.txt) into `db`, ingests
/// every listed archive that exists into a DeltaStore over no base, in
/// master order (every export archive, then every mentions archive), and
/// expects both paths to keep the same rows. Returns the report.
ConvertReport ConvertAndIngestAgree(const std::string& raw,
                                    const std::string& db) {
  ConvertOptions options;
  options.input_dir = raw;
  options.output_dir = db;
  const auto report = ConvertDataset(options);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (!report.ok()) return {};

  const auto master = ReadWholeFile(raw + "/masterfilelist.txt");
  EXPECT_TRUE(master.ok());
  const MasterList list = ParseMasterList(*master);
  stream::DeltaStore delta(nullptr);
  for (const ArchiveKind kind :
       {ArchiveKind::kExport, ArchiveKind::kMentions}) {
    for (const MasterEntry& e : list.entries) {
      const std::string path = raw + "/" + e.file_name;
      if (e.kind != kind || !FileExists(path)) continue;
      const Status s = kind == ArchiveKind::kExport
                           ? delta.IngestArchivePair(path, "")
                           : delta.IngestArchivePair("", path);
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
  }
  const auto snap = delta.Acquire();

  auto events = Table::ReadFromFile(db + "/" + std::string(kEventsTableFile));
  auto mentions =
      Table::ReadFromFile(db + "/" + std::string(kMentionsTableFile));
  auto sources = StringDictionary::ReadFromFile(
      db + "/" + std::string(kSourcesDictFile));
  EXPECT_TRUE(events.ok() && mentions.ok() && sources.ok());
  if (!events.ok() || !mentions.ok() || !sources.ok()) return *report;

  EXPECT_EQ(snap->delta_events(), report->event_rows);
  EXPECT_EQ(snap->delta_mentions(), report->mention_rows);
  ExpectSameColumns(*events, *snap, &stream::DeltaChunk::events);
  ExpectSameColumns(*mentions, *snap, &stream::DeltaChunk::mentions);
  EXPECT_EQ(snap->num_sources(), sources->size());
  for (std::uint32_t id = 0;
       id < std::min(snap->num_sources(), sources->size()); ++id) {
    EXPECT_EQ(snap->source_domain(id), sources->At(id)) << "source " << id;
  }
  EXPECT_EQ(snap->malformed_rows(), report->malformed_rows);
  return *report;
}

TEST(ConvertIngestDifferentialTest, GeneratedAndPlantedArchivesAgree) {
  TempDir dir("wirediff");
  const std::string raw = dir.path() + "/raw";
  const auto cfg = gen::GeneratorConfig::Tiny();
  const auto dataset = gen::GenerateDataset(cfg);
  ASSERT_TRUE(gen::EmitDataset(dataset, cfg, raw).ok());
  auto master = ReadWholeFile(raw + "/masterfilelist.txt");
  ASSERT_TRUE(master.ok());

  // A gid that a generated export archive already holds, so the planted
  // pair can repeat it across archives and mention it.
  std::string generated_gid;
  for (const MasterEntry& e : ParseMasterList(*master).entries) {
    if (e.kind != ArchiveKind::kExport ||
        !FileExists(raw + "/" + e.file_name)) {
      continue;
    }
    ChunkFetcher fetcher{FetchPolicy{}};
    const auto csv = fetcher.FetchCsv(raw, e.file_name, std::nullopt);
    ASSERT_TRUE(csv.ok());
    generated_gid = csv->substr(0, csv->find('\t'));
    break;
  }
  ASSERT_FALSE(generated_gid.empty());

  const std::string t0 = "20990101000000";
  const std::string t1 = "20990101001500";
  const std::vector<std::vector<std::string>> events = {
      Event("9000001", "20990101", t0, "http://planted/1"),
      Event("9x00002", "20990101", t0, "http://planted/2"),  // bad gid
      Event("9000003", "20991301", t0, "http://planted/3"),  // bad Day
      Event("9000004", "20990101", "20990101246000", "u"),  // bad DATEADDED
      {"9000005", "20990101", "short"},                     // short row
      Event("9000001", "20990101", t0, "http://planted/d"),  // dup within
      Event(generated_gid, "20990101", t0, "http://planted/x"),  // across
      Event("9000006", "20990101", t0, ""),  // empty SOURCEURL: kept
  };
  const std::vector<std::vector<std::string>> mentions = {
      Mention("9000001", t0, t1, "planted.example"),
      Mention(generated_gid, t0, t1, "planted.example"),
      Mention("9000006", t0, t1, "other.example"),
      Mention("9x00002", t0, t1, "planted.example"),  // bad gid
      Mention("9000001", "2099010100000", t1, "p.example"),   // EventTimeDate
      Mention("9000001", t0, "20990100001500", "p.example"),  // MentionTime
      Mention("9000001", t0, t1, ""),                 // empty source
      {"9000001", t0, t1, "too", "few"},              // short row
      Mention("9000999", t0, t1, "orphan.example"),   // orphan: kept
  };
  std::string events_csv;
  for (const auto& f : events) events_csv += JoinRow(f);
  std::string mentions_csv;
  for (const auto& f : mentions) mentions_csv += JoinRow(f);
  WriteArchive(raw, t0 + ".export.CSV", events_csv, *master);
  WriteArchive(raw, t0 + ".mentions.CSV", mentions_csv, *master);
  ASSERT_TRUE(WriteWholeFile(raw + "/masterfilelist.txt", *master).ok());

  const ConvertReport report =
      ConvertAndIngestAgree(raw, dir.path() + "/db");
  // Six planted events (two of them duplicates) and five planted
  // mentions are malformed; the generated archives add none of their own.
  EXPECT_EQ(report.malformed_rows, 11u);
  EXPECT_GE(report.orphan_mentions, 1u);
  EXPECT_GE(report.missing_event_source_url, 1u);
}

/// The planted rows of the differential test, mutated with a fixed seed:
/// a field dropped or duplicated, a tab inserted, a letter for a digit,
/// 13- and 15-digit timestamps, an empty field, year 9999, a CRLF ending.
TEST(ConvertIngestDifferentialTest, MutationSweepAgrees) {
  constexpr int kRowsPerTable = 600;
  constexpr int kKinds = 9;
  const std::string t0 = "20990101000000";
  const std::string t1 = "20990101001500";
  const std::array<std::size_t, 2> event_times = {
      Index(EventField::kDay), Index(EventField::kDateAdded)};
  const std::array<std::size_t, 2> mention_times = {
      Index(MentionField::kEventTimeDate),
      Index(MentionField::kMentionTimeDate)};

  Xoshiro256 rng(20990101);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  std::array<int, kKinds> applied{};
  // Mutates one row in place; returns the line ending to write.
  const auto mutate = [&](std::vector<std::string>& f,
                          const std::array<std::size_t, 2>& times) {
    std::string end = "\n";
    const int kind = static_cast<int>(pick(kKinds));
    ++applied[kind];
    const std::size_t i = pick(f.size());
    std::string& time = f[times[pick(2)]];
    switch (kind) {
      case 0: f.erase(f.begin() + static_cast<std::ptrdiff_t>(i)); break;
      case 1:
        f.insert(f.begin() + static_cast<std::ptrdiff_t>(i), f[i]);
        break;
      case 2: f[i].insert(pick(f[i].size() + 1), "\t"); break;
      case 3:
        for (char& c : f[i]) {
          if (c >= '0' && c <= '9') {
            c = 'O';
            break;
          }
        }
        break;
      case 4: if (!time.empty()) time.pop_back(); break;
      case 5: time += "0"; break;
      case 6: f[i].clear(); break;
      case 7:
        time.replace(0, std::min<std::size_t>(4, time.size()), "9999");
        break;
      case 8: end = "\r\n"; break;
    }
    return end;
  };

  std::string events_csv;
  std::string mentions_csv;
  for (int n = 0; n < kRowsPerTable; ++n) {
    // Distinct gids, so a mutation decides a row's fate and not an
    // earlier copy; every eighth row reuses a gid to keep duplicates in.
    const std::string gid = std::to_string(9'100'000 + n - (n % 8 == 7));
    auto ev = Event(gid, "20990101", t0, "http://planted/" + gid,
                    n % 3 ? "US" : "FR");
    const std::string ev_end = mutate(ev, event_times);
    events_csv += JoinRow(ev, ev_end);
    auto m = Mention(std::to_string(9'100'000 + pick(kRowsPerTable)), t0, t1,
                     "s" + std::to_string(pick(40)) + ".example");
    const std::string m_end = mutate(m, mention_times);
    mentions_csv += JoinRow(m, m_end);
  }
  for (int kind = 0; kind < kKinds; ++kind) {
    EXPECT_GT(applied[kind], 0) << "mutation kind " << kind << " never ran";
  }

  TempDir dir("wiresweep");
  const std::string raw = dir.path() + "/raw";
  ASSERT_TRUE(MakeDirectories(raw).ok());
  std::string master;
  WriteArchive(raw, t0 + ".export.CSV", events_csv, master);
  WriteArchive(raw, t0 + ".mentions.CSV", mentions_csv, master);
  ASSERT_TRUE(WriteWholeFile(raw + "/masterfilelist.txt", master).ok());

  const ConvertReport report =
      ConvertAndIngestAgree(raw, dir.path() + "/db");
  // The sweep must exercise both outcomes.
  EXPECT_GT(report.malformed_rows, 0u);
  EXPECT_GT(report.event_rows, 0u);
  EXPECT_GT(report.mention_rows, 0u);
}

}  // namespace
}  // namespace gdelt::convert
