#include "convert/converter.hpp"

#include <gtest/gtest.h>

#include "columnar/table.hpp"
#include "convert/master_list.hpp"
#include "gen/emit.hpp"
#include "gen/generator.hpp"
#include "io/crc32.hpp"
#include "io/fault.hpp"
#include "io/file.hpp"
#include "io/zipstore.hpp"
#include "test_util.hpp"
#include "util/strings.hpp"

namespace gdelt::convert {
namespace {

using ::gdelt::testing::TempDir;

TEST(MasterListTest, ParsesWellFormedEntries) {
  const MasterList list = ParseMasterList(
      "123 0000abcd 20150218000000.export.CSV.zip\n"
      "456 DEADBEEF 20150218000000.mentions.CSV.zip\n"
      "789 12345678 readme.txt\n");
  ASSERT_EQ(list.entries.size(), 3u);
  EXPECT_EQ(list.malformed_entries, 0u);
  EXPECT_EQ(list.entries[0].size, 123u);
  EXPECT_EQ(list.entries[0].crc32, 0x0000ABCDu);
  EXPECT_EQ(list.entries[0].kind, ArchiveKind::kExport);
  EXPECT_EQ(list.entries[1].crc32, 0xDEADBEEFu);
  EXPECT_EQ(list.entries[1].kind, ArchiveKind::kMentions);
  EXPECT_EQ(list.entries[2].kind, ArchiveKind::kOther);
}

TEST(MasterListTest, CountsMalformedEntries) {
  const MasterList list = ParseMasterList(
      "garbage\n"                                   // 1 field
      "12 deadbeef\n"                               // 2 fields
      "notanum ffff0000 x.zip\n"                    // bad size
      "12 nothex00x x.zip\n"                        // bad crc chars
      "12 abc x.zip\n"                              // crc too short
      "5 00000000 ok.export.CSV.zip\n"              // fine
      "\n"                                          // blank: ignored
      "1 2 3 4\n");                                 // 4 fields
  EXPECT_EQ(list.entries.size(), 1u);
  EXPECT_EQ(list.malformed_entries, 6u);
  EXPECT_LE(list.malformed_samples.size(), 10u);
  EXPECT_FALSE(list.malformed_samples.empty());
}

TEST(MasterListTest, ClassifyArchive) {
  EXPECT_EQ(ClassifyArchive("a.export.CSV.zip"), ArchiveKind::kExport);
  EXPECT_EQ(ClassifyArchive("a.mentions.CSV.zip"), ArchiveKind::kMentions);
  EXPECT_EQ(ClassifyArchive("a.gkg.csv.zip"), ArchiveKind::kOther);
}

class ConvertedTinyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dirs_ = new TempDir("convert");
    cfg_ = gen::GeneratorConfig::Tiny();
    dataset_ = new gen::RawDataset(gen::GenerateDataset(cfg_));
    auto emitted = gen::EmitDataset(*dataset_, cfg_, dirs_->path() + "/raw");
    ASSERT_TRUE(emitted.ok());
    emitted_ = new gen::EmitResult(*emitted);
    ConvertOptions options;
    options.input_dir = dirs_->path() + "/raw";
    options.output_dir = dirs_->path() + "/db";
    auto report = ConvertDataset(options);
    ASSERT_TRUE(report.ok());
    report_ = new ConvertReport(*report);
  }
  static void TearDownTestSuite() {
    delete report_;
    delete emitted_;
    delete dataset_;
    delete dirs_;
  }

  static inline TempDir* dirs_ = nullptr;
  static inline gen::GeneratorConfig cfg_;
  static inline gen::RawDataset* dataset_ = nullptr;
  static inline gen::EmitResult* emitted_ = nullptr;
  static inline ConvertReport* report_ = nullptr;
};

TEST_F(ConvertedTinyTest, RowTotalsMatchGroundTruth) {
  EXPECT_EQ(report_->event_rows,
            dataset_->truth.num_events - emitted_->dropped_events);
  EXPECT_EQ(report_->mention_rows,
            dataset_->truth.num_mentions - emitted_->dropped_mentions);
  EXPECT_GT(report_->num_sources, 0u);
  EXPECT_LE(report_->num_sources, cfg_.num_sources);
}

TEST_F(ConvertedTinyTest, TableTwoDefectsRediscovered) {
  EXPECT_EQ(report_->malformed_master_entries,
            cfg_.defect_malformed_master_entries);
  EXPECT_EQ(report_->missing_archives, cfg_.defect_missing_archives);
  EXPECT_EQ(report_->missing_event_source_url,
            cfg_.defect_missing_source_url);
  // Future-dated events are only discoverable if their event row survived
  // the missing archive; tolerate <= injected.
  EXPECT_LE(report_->future_event_dates, cfg_.defect_future_event_dates);
  EXPECT_GE(report_->future_event_dates, 1u);
  EXPECT_EQ(report_->corrupt_archives, 0u);
  EXPECT_EQ(report_->malformed_rows, 0u);
}

TEST_F(ConvertedTinyTest, OrphansComeFromMissingChunk) {
  // Mentions of events whose event row was dropped with the missing chunk.
  EXPECT_GT(report_->orphan_mentions, 0u);
}

TEST_F(ConvertedTinyTest, WritesAllOutputFiles) {
  const std::string out = dirs_->path() + "/db";
  EXPECT_TRUE(FileExists(out + "/events.tbl"));
  EXPECT_TRUE(FileExists(out + "/mentions.tbl"));
  EXPECT_TRUE(FileExists(out + "/sources.dict"));
  EXPECT_TRUE(FileExists(out + "/convert_report.txt"));
  const auto report_text = ReadWholeFile(out + "/convert_report.txt");
  ASSERT_TRUE(report_text.ok());
  EXPECT_NE(report_text->find("missing archives"), std::string::npos);
}

TEST(ConvertErrorsTest, MissingMasterListFails) {
  TempDir dir("nomaster");
  ConvertOptions options;
  options.input_dir = dir.path();
  options.output_dir = dir.path() + "/db";
  EXPECT_EQ(ConvertDataset(options).status().code(), StatusCode::kIoError);
}

TEST(ConvertErrorsTest, CorruptArchiveCountedNotFatal) {
  TempDir dir("corrupt");
  const auto cfg = gen::GeneratorConfig::Tiny();
  const auto ds = gen::GenerateDataset(cfg);
  auto emitted = gen::EmitDataset(ds, cfg, dir.path() + "/raw");
  ASSERT_TRUE(emitted.ok());
  // Corrupt the first listed export archive on disk.
  const auto master = ReadWholeFile(dir.path() + "/raw/masterfilelist.txt");
  ASSERT_TRUE(master.ok());
  const MasterList list = ParseMasterList(*master);
  const std::string victim =
      dir.path() + "/raw/" + list.entries.front().file_name;
  auto bytes = ReadWholeFile(victim);
  ASSERT_TRUE(bytes.ok());
  (*bytes)[bytes->size() / 2] ^= 0xFF;
  ASSERT_TRUE(WriteWholeFile(victim, *bytes).ok());

  ConvertOptions options;
  options.input_dir = dir.path() + "/raw";
  options.output_dir = dir.path() + "/db";
  const auto report = ConvertDataset(options);
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report->corrupt_archives, 1u);
}

TEST(ConvertErrorsTest, MalformedRowsCounted) {
  TempDir dir("badrows");
  const auto cfg = gen::GeneratorConfig::Tiny();
  const auto ds = gen::GenerateDataset(cfg);
  ASSERT_TRUE(gen::EmitDataset(ds, cfg, dir.path() + "/raw").ok());
  // Append an extra archive with malformed rows and list it in the master.
  const std::string bad_csv = "not\tenough\tfields\n";
  ZipWriter zip;
  const std::string zip_path =
      dir.path() + "/raw/20990101000000.export.CSV.zip";
  ASSERT_TRUE(zip.Open(zip_path).ok());
  ASSERT_TRUE(zip.AddEntry("20990101000000.export.CSV", bad_csv).ok());
  ASSERT_TRUE(zip.Finish().ok());
  auto zip_bytes = ReadWholeFile(zip_path);
  ASSERT_TRUE(zip_bytes.ok());
  auto master = ReadWholeFile(dir.path() + "/raw/masterfilelist.txt");
  ASSERT_TRUE(master.ok());
  *master += StrFormat("%zu %08x 20990101000000.export.CSV.zip\n",
                       zip_bytes->size(), Crc32(*zip_bytes));
  ASSERT_TRUE(
      WriteWholeFile(dir.path() + "/raw/masterfilelist.txt", *master).ok());

  ConvertOptions options;
  options.input_dir = dir.path() + "/raw";
  options.output_dir = dir.path() + "/db";
  const auto report = ConvertDataset(options);
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report->malformed_rows, 1u);
}

/// Fixture for the crash/resume equivalence tests: one emitted raw
/// dataset, one uninterrupted reference conversion to compare against,
/// and a conversion aborted mid-run by a fault-injected torn write.
class ConvertResumeTest : public ::testing::Test {
 protected:
  static constexpr const char* kTables[] = {"events.tbl", "mentions.tbl",
                                            "sources.dict"};

  static void SetUpTestSuite() {
    dirs_ = new TempDir("resume");
    const auto cfg = gen::GeneratorConfig::Tiny();
    const auto dataset = gen::GenerateDataset(cfg);
    ASSERT_TRUE(gen::EmitDataset(dataset, cfg, dirs_->path() + "/raw").ok());
    ConvertOptions reference;
    reference.input_dir = dirs_->path() + "/raw";
    reference.output_dir = dirs_->path() + "/ref";
    ASSERT_TRUE(ConvertDataset(reference).ok());
  }
  static void TearDownTestSuite() {
    delete dirs_;
    dirs_ = nullptr;
  }

  static ConvertOptions Options(const std::string& out) {
    ConvertOptions options;
    options.input_dir = dirs_->path() + "/raw";
    options.output_dir = dirs_->path() + "/out_" + out;
    return options;
  }

  /// Runs a conversion that dies on a torn write mid-way through the
  /// archive loop, leaving a journal and some settled spills behind.
  static void RunInterrupted(const ConvertOptions& options) {
    fault::ScopedFaultInjection guard("write@200");
    const auto report = ConvertDataset(options);
    ASSERT_FALSE(report.ok());
    ASSERT_TRUE(FileExists(options.output_dir + "/convert.journal"));
  }

  static void ExpectTablesMatchReference(const std::string& out_dir) {
    for (const char* table : kTables) {
      const auto expected = ReadWholeFile(dirs_->path() + "/ref/" + table);
      const auto actual = ReadWholeFile(out_dir + "/" + table);
      ASSERT_TRUE(expected.ok());
      ASSERT_TRUE(actual.ok()) << table;
      EXPECT_TRUE(*expected == *actual)
          << table << " differs from the uninterrupted conversion";
    }
  }

  static inline TempDir* dirs_ = nullptr;
};

TEST_F(ConvertResumeTest, ResumeAfterAbortIsByteIdentical) {
  ConvertOptions options = Options("resume");
  RunInterrupted(options);

  options.resume = true;
  const auto resumed = ConvertDataset(options);
  ASSERT_TRUE(resumed.ok());
  EXPECT_GT(resumed->resumed_archives, 0u);
  ExpectTablesMatchReference(options.output_dir);
  // Success retires the journal; nothing is left to confuse a later run.
  EXPECT_FALSE(FileExists(options.output_dir + "/convert.journal"));
}

TEST_F(ConvertResumeTest, FreshRunIgnoresStaleJournal) {
  ConvertOptions options = Options("fresh");
  RunInterrupted(options);

  // Without --resume the journal is discarded and every archive reruns.
  const auto report = ConvertDataset(options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->resumed_archives, 0u);
  ExpectTablesMatchReference(options.output_dir);
}

TEST_F(ConvertResumeTest, ResumeAgainstDifferentInputStartsFresh) {
  ConvertOptions options = Options("mismatch");
  RunInterrupted(options);

  // Regenerate the input with another seed: the journal's master-list
  // checksum no longer matches, so resuming must not trust it.
  auto cfg = gen::GeneratorConfig::Tiny();
  cfg.seed = 777;
  const auto dataset = gen::GenerateDataset(cfg);
  const std::string other_raw = dirs_->path() + "/raw_other";
  ASSERT_TRUE(gen::EmitDataset(dataset, cfg, other_raw).ok());

  options.input_dir = other_raw;
  options.resume = true;
  const auto report = ConvertDataset(options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->resumed_archives, 0u);
}

TEST_F(ConvertResumeTest, ResumeOverOldSchemaJournalStartsFresh) {
  ConvertOptions options = Options("oldjournal");
  RunInterrupted(options);

  // Rewrite the journal header the way the older converter wrote it: a
  // 0/1 URL flag where the spill schema now goes. Its archive records and
  // their spills stay behind; none may be trusted.
  const std::string journal = options.output_dir + "/convert.journal";
  const auto text = ReadWholeFile(journal);
  const auto master = ReadWholeFile(options.input_dir + "/masterfilelist.txt");
  ASSERT_TRUE(text.ok());
  ASSERT_TRUE(master.ok());
  const std::string body = StrFormat("begin %u 1", Crc32(*master));
  const std::string old =
      StrFormat("%08x ", Crc32(body)) + body + text->substr(text->find('\n'));
  ASSERT_TRUE(WriteWholeFile(journal, old).ok());

  options.resume = true;
  const auto report = ConvertDataset(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->resumed_archives, 0u);
  bool noted = false;
  for (const std::string& note : report->notes) {
    noted |= note.find("does not match") != std::string::npos;
  }
  EXPECT_TRUE(noted);
  ExpectTablesMatchReference(options.output_dir);
}

/// A checksum-valid spill of a settled archive whose columns are missing
/// or of another type: resuming must fail with DataLoss, not abort.
TEST_F(ConvertResumeTest, BadSpillColumnsAreDataLoss) {
  // One row of every column of both spill kinds (their names differ),
  // with the intervals either dropped or in the older i64 type.
  const auto spill_table = [](bool mistyped) {
    Table t;
    t.AddColumn("global_id", ColumnType::kU64).Append<std::uint64_t>(1);
    t.AddColumn("gid", ColumnType::kU64).Append<std::uint64_t>(1);
    if (mistyped) {
      for (const char* name :
           {"added_interval", "event_interval", "mention_interval"}) {
        t.AddColumn(name, ColumnType::kI64).Append<std::int64_t>(0);
      }
    }
    t.AddColumn("country", ColumnType::kU16).Append<std::uint16_t>(0);
    t.AddColumn("goldstein", ColumnType::kF64).Append<double>(0.0);
    t.AddColumn("avg_tone", ColumnType::kF64).Append<double>(0.0);
    t.AddColumn("quad_class", ColumnType::kU8).Append<std::uint8_t>(1);
    t.AddColumn("source_url", ColumnType::kStr).AppendString("http://a/");
    t.AddColumn("source_name", ColumnType::kStr).AppendString("a.com");
    t.AddColumn("confidence", ColumnType::kU8).Append<std::uint8_t>(1);
    return t;
  };
  for (const bool mistyped : {false, true}) {
    ConvertOptions options = Options(mistyped ? "mistyped" : "missing");
    RunInterrupted(options);
    // Replace the spill of the first archive the journal settled.
    const auto journal = ReadWholeFile(options.output_dir + "/convert.journal");
    ASSERT_TRUE(journal.ok());
    std::string settled;
    for (const std::string_view line : SplitView(*journal, '\n')) {
      const auto fields = SplitView(line, ' ');
      if (fields.size() == 7 && fields[1] == "archive") {
        settled = std::string(fields[6]);
        break;
      }
    }
    ASSERT_FALSE(settled.empty());
    const std::string spill =
        options.output_dir + "/.convert_spill/" + settled + ".spill";
    ASSERT_TRUE(FileExists(spill));
    ASSERT_TRUE(spill_table(mistyped).WriteToFile(spill).ok());

    options.resume = true;
    const auto report = ConvertDataset(options);
    EXPECT_EQ(report.status().code(), StatusCode::kDataLoss)
        << report.status().ToString();
    EXPECT_NE(report.status().message().find(settled), std::string::npos);
  }
}

}  // namespace
}  // namespace gdelt::convert
