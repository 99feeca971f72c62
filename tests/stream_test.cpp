#include "stream/delta_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <unordered_map>

#include "convert/converter.hpp"
#include "convert/master_list.hpp"
#include "gen/emit.hpp"
#include "gen/generator.hpp"
#include "io/crc32.hpp"
#include "io/file.hpp"
#include "io/zipstore.hpp"
#include "test_util.hpp"
#include "util/strings.hpp"

namespace gdelt::stream {
namespace {

using ::gdelt::testing::TempDir;

/// Splits a generated raw dataset: chunks before `cut` form the base (via
/// the converter); chunks from `cut` on are streamed into a DeltaStore.
class StreamTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dirs_ = new TempDir("stream");
    auto cfg = gen::GeneratorConfig::Tiny();
    cfg.defect_missing_archives = 0;
    cfg.defect_malformed_master_entries = 0;
    dataset_ = new gen::RawDataset(gen::GenerateDataset(cfg));
    ASSERT_TRUE(
        gen::EmitDataset(*dataset_, cfg, dirs_->path() + "/raw").ok());

    // Enumerate chunk archives from the master list, in order.
    auto master = ReadWholeFile(dirs_->path() + "/raw/masterfilelist.txt");
    ASSERT_TRUE(master.ok());
    const auto list = convert::ParseMasterList(*master);
    std::vector<std::string> exports;
    std::vector<std::string> mentions;
    for (const auto& e : list.entries) {
      if (e.kind == convert::ArchiveKind::kExport) {
        exports.push_back(e.file_name);
      } else if (e.kind == convert::ArchiveKind::kMentions) {
        mentions.push_back(e.file_name);
      }
    }
    ASSERT_EQ(exports.size(), mentions.size());
    const std::size_t cut = exports.size() * 3 / 4;

    // Base: copy the first `cut` chunks plus a reduced master list.
    ASSERT_TRUE(MakeDirectories(dirs_->path() + "/base").ok());
    std::string base_master;
    for (std::size_t i = 0; i < cut; ++i) {
      for (const std::string* name : {&exports[i], &mentions[i]}) {
        auto bytes = ReadWholeFile(dirs_->path() + "/raw/" + *name);
        ASSERT_TRUE(bytes.ok());
        ASSERT_TRUE(WriteWholeFile(dirs_->path() + "/base/" + *name, *bytes)
                        .ok());
        base_master += StrFormat("%zu %08x ", bytes->size(), Crc32(*bytes));
        base_master += *name;
        base_master += '\n';
      }
    }
    ASSERT_TRUE(WriteWholeFile(dirs_->path() + "/base/masterfilelist.txt",
                               base_master)
                    .ok());
    convert::ConvertOptions options;
    options.input_dir = dirs_->path() + "/base";
    options.output_dir = dirs_->path() + "/db";
    ASSERT_TRUE(convert::ConvertDataset(options).ok());
    auto db = engine::Database::Load(dirs_->path() + "/db");
    ASSERT_TRUE(db.ok());
    db_ = new engine::Database(std::move(*db));

    // Stream the tail chunks.
    delta_ = new DeltaStore(db_);
    for (std::size_t i = cut; i < exports.size(); ++i) {
      ASSERT_TRUE(delta_
                      ->IngestArchivePair(
                          dirs_->path() + "/raw/" + exports[i],
                          dirs_->path() + "/raw/" + mentions[i])
                      .ok());
    }
  }
  static void TearDownTestSuite() {
    delete delta_;
    delete db_;
    delete dataset_;
    delete dirs_;
  }

  static inline TempDir* dirs_ = nullptr;
  static inline gen::RawDataset* dataset_ = nullptr;
  static inline engine::Database* db_ = nullptr;
  static inline DeltaStore* delta_ = nullptr;
};

TEST_F(StreamTest, CombinedTotalsEqualGroundTruth) {
  EXPECT_EQ(delta_->CombinedMentionCount(), dataset_->truth.num_mentions);
  EXPECT_EQ(db_->num_events() + delta_->delta_events(),
            dataset_->truth.num_events);
  EXPECT_EQ(delta_->malformed_rows(), 0u);
  EXPECT_GT(delta_->delta_mentions(), 0u);
}

TEST_F(StreamTest, CombinedArticlesPerSourceEqualGroundTruth) {
  const auto counts = delta_->CombinedArticlesPerSource();
  std::uint64_t total = 0;
  for (std::uint32_t s = 0; s < delta_->num_sources(); ++s) {
    total += counts[s];
    // Ground-truth lookup by domain.
    const std::string domain(delta_->source_domain(s));
    bool found = false;
    for (std::size_t w = 0; w < dataset_->world.sources.size(); ++w) {
      if (dataset_->world.sources[w].domain == domain) {
        EXPECT_EQ(counts[s], dataset_->truth.articles_per_source[w])
            << domain;
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << domain;
  }
  EXPECT_EQ(total, dataset_->truth.num_mentions);
}

TEST_F(StreamTest, CombinedCountryCountsEqualGroundTruth) {
  // Brute force from the generator's records: articles about USA events.
  std::uint64_t expected = 0;
  std::unordered_map<std::uint64_t, CountryId> loc;
  for (const auto& ev : dataset_->events) {
    loc[ev.global_event_id] = ev.location;
  }
  for (const auto& m : dataset_->mentions) {
    if (loc[m.global_event_id] == country::kUSA) ++expected;
  }
  EXPECT_EQ(delta_->CombinedArticlesAboutCountry(country::kUSA), expected);
}

TEST_F(StreamTest, TopSourcesAreConsistentWithCounts) {
  const auto counts = delta_->CombinedArticlesPerSource();
  const auto top = delta_->CombinedTopSources(5);
  ASSERT_EQ(top.size(), 5u);
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(counts[top[i - 1]], counts[top[i]]);
  }
}

TEST_F(StreamTest, CombinedArticlesPerSourceMatchesFullConversion) {
  // Convert the entire raw dataset in one shot; the streamed base+delta
  // combination must agree with it per domain (id spaces differ).
  convert::ConvertOptions options;
  options.input_dir = dirs_->path() + "/raw";
  options.output_dir = dirs_->path() + "/fulldb";
  ASSERT_TRUE(convert::ConvertDataset(options).ok());
  auto full = engine::Database::Load(dirs_->path() + "/fulldb");
  ASSERT_TRUE(full.ok());
  const auto full_counts = engine::ArticlesPerSource(*full);
  std::unordered_map<std::string, std::uint64_t> by_domain;
  for (std::uint32_t s = 0; s < full->num_sources(); ++s) {
    by_domain[std::string(full->source_domain(s))] = full_counts[s];
  }
  const auto combined = delta_->CombinedArticlesPerSource();
  std::uint64_t combined_total = 0;
  for (std::uint32_t s = 0; s < delta_->num_sources(); ++s) {
    combined_total += combined[s];
    const auto it = by_domain.find(std::string(delta_->source_domain(s)));
    if (it != by_domain.end()) {
      EXPECT_EQ(combined[s], it->second) << delta_->source_domain(s);
    } else {
      EXPECT_EQ(combined[s], 0u) << delta_->source_domain(s);
    }
  }
  EXPECT_EQ(combined_total, full->num_mentions());
}

TEST_F(StreamTest, GenerationReflectsIngests) {
  // The fixture streamed at least one chunk pair.
  EXPECT_GT(delta_->Generation(), 0u);
}

TEST_F(StreamTest, AcquiredSnapshotAgreesWithForwardingAccessors) {
  // The store's convenience accessors are one-liners over Acquire();
  // with no concurrent ingest the two views must be identical.
  const auto snap = delta_->Acquire();
  EXPECT_EQ(snap->generation(), delta_->Generation());
  EXPECT_EQ(snap->delta_events(), delta_->delta_events());
  EXPECT_EQ(snap->delta_mentions(), delta_->delta_mentions());
  EXPECT_EQ(snap->num_sources(), delta_->num_sources());
  EXPECT_EQ(snap->CombinedMentionCount(), delta_->CombinedMentionCount());
  EXPECT_EQ(snap->CombinedArticlesPerSource(),
            delta_->CombinedArticlesPerSource());
  EXPECT_EQ(snap->CombinedTopSources(5), delta_->CombinedTopSources(5));
  for (std::uint32_t s = 0; s < snap->num_sources(); ++s) {
    EXPECT_EQ(std::string(snap->source_domain(s)), delta_->source_domain(s));
  }
}

TEST(DeltaStoreGenerationTest, BumpedOnEverySuccessfulIngest) {
  DeltaStore delta(nullptr);
  EXPECT_EQ(delta.Generation(), 0u);

  const auto cfg = gen::GeneratorConfig::Tiny();
  const auto dataset = gen::GenerateDataset(cfg);
  std::string events_csv;
  std::string mentions_csv;
  gen::AppendEventRow(events_csv, dataset.world, dataset.events[0]);
  gen::AppendMentionRow(mentions_csv, dataset.world, dataset.mentions[0]);

  ASSERT_TRUE(delta.IngestEventsCsv(events_csv).ok());
  const std::uint64_t after_events = delta.Generation();
  EXPECT_GT(after_events, 0u);
  ASSERT_TRUE(delta.IngestMentionsCsv(mentions_csv).ok());
  const std::uint64_t after_mentions = delta.Generation();
  EXPECT_GT(after_mentions, after_events);

  // A failed ingest leaves the generation unchanged.
  EXPECT_FALSE(delta.IngestArchivePair("/no/such.zip", "").ok());
  EXPECT_EQ(delta.Generation(), after_mentions);
}

TEST(DeltaStoreColdStartTest, IngestWithoutBase) {
  DeltaStore delta(nullptr);
  // Hand-written rows in wire format.
  const auto cfg = gen::GeneratorConfig::Tiny();
  const auto dataset = gen::GenerateDataset(cfg);
  std::string events_csv;
  std::string mentions_csv;
  for (std::size_t i = 0; i < 10 && i < dataset.events.size(); ++i) {
    gen::AppendEventRow(events_csv, dataset.world, dataset.events[i]);
  }
  for (std::size_t i = 0; i < 50 && i < dataset.mentions.size(); ++i) {
    gen::AppendMentionRow(mentions_csv, dataset.world, dataset.mentions[i]);
  }
  ASSERT_TRUE(delta.IngestEventsCsv(events_csv).ok());
  ASSERT_TRUE(delta.IngestMentionsCsv(mentions_csv).ok());
  EXPECT_EQ(delta.delta_events(), 10u);
  EXPECT_EQ(delta.delta_mentions(), 50u);
  EXPECT_GT(delta.num_sources(), 0u);
  EXPECT_EQ(delta.CombinedMentionCount(), 50u);
}

TEST(DeltaStoreConcurrencyTest, SourceDomainStaysValidDuringIngest) {
  // Regression: source_domain used to return a string_view into
  // new_sources_. Domains short enough for SSO live inside the vector's
  // element storage, so every reallocation during a concurrent ingest
  // moved them and the view dangled (use-after-free under ASan). The
  // by-value API must keep answering correctly while the ingester grows
  // new_sources_ far past its initial capacity.
  DeltaStore delta(nullptr);
  const auto mention_row = [](std::uint64_t gid, const std::string& domain) {
    std::string row = std::to_string(gid);
    row += "\t\t20240101000000\t1\t";
    row += domain;
    row.append(11, '\t');
    row += '\n';
    return row;
  };
  std::string seed;
  for (int i = 0; i < 4; ++i) {
    seed += mention_row(1000 + i, "s" + std::to_string(i) + ".com");
  }
  ASSERT_TRUE(delta.IngestMentionsCsv(seed).ok());
  ASSERT_EQ(delta.num_sources(), 4u);

  constexpr int kBatches = 64;
  constexpr int kPerBatch = 32;
  std::atomic<bool> stop{false};
  std::thread ingester([&] {
    for (int batch = 0; batch < kBatches; ++batch) {
      std::string csv;
      for (int i = 0; i < kPerBatch; ++i) {
        const int n = batch * kPerBatch + i;
        csv += mention_row(2000 + n, "g" + std::to_string(n) + ".net");
      }
      EXPECT_TRUE(delta.IngestMentionsCsv(csv).ok());
    }
    stop.store(true, std::memory_order_release);
  });
  // At least one full pass even if the ingester wins the race outright
  // (snapshot publication made ticks fast enough for that to happen on
  // an unloaded box).
  std::uint64_t reads = 0;
  while (!stop.load(std::memory_order_acquire) || reads == 0) {
    for (std::uint32_t id = 0; id < 4; ++id) {
      EXPECT_EQ(delta.source_domain(id),
                "s" + std::to_string(id) + ".com");
      ++reads;
    }
  }
  ingester.join();
  EXPECT_GT(reads, 0u);
  EXPECT_EQ(delta.num_sources(), 4u + kBatches * kPerBatch);
  // One bump per successful ingest call, applied inside the critical
  // section (seed + every batch).
  EXPECT_EQ(delta.Generation(), 1u + kBatches);
}

TEST(DeltaStoreErrorsTest, MalformedRowsAreCounted) {
  DeltaStore delta(nullptr);
  ASSERT_TRUE(delta.IngestMentionsCsv("way\ttoo\tfew\tfields\n").ok());
  EXPECT_EQ(delta.malformed_rows(), 1u);
  ASSERT_TRUE(delta
                  .IngestEventsCsv("not-a-valid-event-row\n")
                  .ok());
  EXPECT_EQ(delta.malformed_rows(), 2u);
}

TEST(DeltaStoreErrorsTest, MissingArchiveFails) {
  DeltaStore delta(nullptr);
  EXPECT_FALSE(delta.IngestArchivePair("/no/such.zip", "").ok());
}

// A path that does not exist fails at once with NotFound: no fetch
// attempt, so no backoff sleep (the server holds its ingest lock for the
// whole call). The backoff below would make a single retry take seconds.
TEST(DeltaStoreErrorsTest, MissingArchiveFailsFastWithoutFetching) {
  TempDir dir("missingpair");
  const std::string export_zip = dir.path() + "/chunk.export.CSV.zip";
  ZipWriter zip;
  ASSERT_TRUE(zip.Open(export_zip).ok());
  ASSERT_TRUE(zip.AddEntry("chunk.export.CSV", "").ok());
  ASSERT_TRUE(zip.Finish().ok());

  DeltaStore delta(nullptr);
  convert::FetchPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_initial_ms = 5000;
  delta.set_fetch_policy(policy);
  const auto t0 = std::chrono::steady_clock::now();
  const Status missing_export =
      delta.IngestArchivePair(dir.path() + "/gone.export.CSV.zip", "");
  // The export side exists; the missing mentions side must still stop the
  // pair before either archive is fetched.
  const Status missing_mentions = delta.IngestArchivePair(
      export_zip, dir.path() + "/gone.mentions.CSV.zip");
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  EXPECT_EQ(missing_export.code(), StatusCode::kNotFound);
  EXPECT_EQ(missing_mentions.code(), StatusCode::kNotFound);
  EXPECT_NE(missing_mentions.message().find("gone.mentions"),
            std::string::npos);
  EXPECT_EQ(delta.fetch_stats().attempts, 0u);
  EXPECT_EQ(delta.fetch_stats().failures, 0u);
  EXPECT_EQ(delta.Generation(), 0u);
  EXPECT_LT(ms, 2500.0) << "a missing archive was retried with backoff";
}

TEST(DeltaStoreErrorsTest, TruncatedMentionsArchiveLeavesStoreUntouched) {
  TempDir dir("truncpair");
  const auto cfg = gen::GeneratorConfig::Tiny();
  const auto dataset = gen::GenerateDataset(cfg);
  std::string events_csv;
  std::string mentions_csv;
  for (std::size_t i = 0; i < 5; ++i) {
    gen::AppendEventRow(events_csv, dataset.world, dataset.events[i]);
    gen::AppendMentionRow(mentions_csv, dataset.world, dataset.mentions[i]);
  }
  const auto write_zip = [&dir](const std::string& name,
                                const std::string& csv) {
    ZipWriter zip;
    ASSERT_TRUE(zip.Open(dir.path() + "/" + name).ok());
    ASSERT_TRUE(zip.AddEntry(name + ".CSV", csv).ok());
    ASSERT_TRUE(zip.Finish().ok());
  };
  write_zip("chunk.export.CSV.zip", events_csv);
  write_zip("chunk.mentions.CSV.zip", mentions_csv);
  // Tear the mentions archive in half — a crashed mirror sync.
  const std::string mentions_path = dir.path() + "/chunk.mentions.CSV.zip";
  auto bytes = ReadWholeFile(mentions_path);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(
      WriteWholeFile(mentions_path, bytes->substr(0, bytes->size() / 2))
          .ok());

  DeltaStore delta(nullptr);
  convert::FetchPolicy policy;
  policy.max_attempts = 2;
  policy.backoff_initial_ms = 0;
  delta.set_fetch_policy(policy);
  // All-or-nothing: even though the export side is intact, the bad
  // mentions side must keep the whole pair out of the store.
  EXPECT_FALSE(delta
                   .IngestArchivePair(dir.path() + "/chunk.export.CSV.zip",
                                      mentions_path)
                   .ok());
  EXPECT_EQ(delta.delta_events(), 0u);
  EXPECT_EQ(delta.delta_mentions(), 0u);
  EXPECT_EQ(delta.Generation(), 0u);
  EXPECT_GE(delta.fetch_stats().failures, 1u);
}

}  // namespace
}  // namespace gdelt::stream
