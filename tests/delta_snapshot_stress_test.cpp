// Torn-read contract stress test for the DeltaStore snapshot path.
//
// One ingester publishes ticks in a strict alternating pattern (event
// tick, then mention tick) while reader threads hammer the multi-accessor
// "stats render" sequence: acquire one snapshot, then read every count
// and combined aggregate from it. The pattern makes every quantity a
// closed-form function of the generation, so if ANY pair of accessor
// results ever mixed two generations — the pre-RCU failure mode, where a
// tick landing between two calls produced e.g. post-ingest mentions
// paired with pre-ingest sources — an equation below breaks.
//
// Runs under TSan in CI (alongside morsel_pool_cancel_stress_test) to
// also prove the acquire/release publication protocol is race-free.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "schema/countries.hpp"
#include "schema/gdelt_schema.hpp"
#include "stream/delta_store.hpp"

namespace gdelt::stream {
namespace {

std::string JoinRow(const std::vector<std::string>& fields) {
  std::string row;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    row += fields[i];
    row += i + 1 < fields.size() ? '\t' : '\n';
  }
  return row;
}

/// One USA-located event with global id `gid`.
std::string EventRow(std::uint64_t gid) {
  std::vector<std::string> f(kEventFieldCount);
  f[Index(EventField::kGlobalEventId)] = std::to_string(gid);
  f[Index(EventField::kDay)] = "20240101";
  f[Index(EventField::kDateAdded)] = "20240101000000";
  f[Index(EventField::kActionGeoCountryCode)] = "US";
  return JoinRow(f);
}

/// One mention of event `gid` published by `domain`.
std::string MentionRow(std::uint64_t gid, const std::string& domain) {
  std::vector<std::string> f(kMentionFieldCount);
  f[Index(MentionField::kGlobalEventId)] = std::to_string(gid);
  f[Index(MentionField::kEventTimeDate)] = "20240101000000";
  f[Index(MentionField::kMentionTimeDate)] = "20240101001500";
  f[Index(MentionField::kMentionSourceName)] = domain;
  return JoinRow(f);
}

// Tick pattern: odd generations ingest 1 USA event; even generations
// ingest kMentionsPerTick mentions of the previous tick's event, all
// from one never-seen-before domain. At generation g, therefore:
//   delta_events    == (g + 1) / 2
//   delta_mentions  == kMentionsPerTick * (g / 2)
//   num_sources     == g / 2
//   articles about USA == delta_mentions  (every event is in the US)
//   sum(articles per source) == delta_mentions
constexpr int kTicks = 200;
constexpr std::uint64_t kMentionsPerTick = 3;

void CheckSnapshotConsistent(const DeltaSnapshot& snap) {
  const std::uint64_t g = snap.generation();
  ASSERT_LE(g, static_cast<std::uint64_t>(kTicks));
  EXPECT_EQ(snap.delta_events(), (g + 1) / 2) << "generation " << g;
  EXPECT_EQ(snap.delta_mentions(), kMentionsPerTick * (g / 2))
      << "generation " << g;
  EXPECT_EQ(snap.num_sources(), g / 2) << "generation " << g;
  EXPECT_EQ(snap.CombinedMentionCount(), snap.delta_mentions());
  EXPECT_EQ(snap.malformed_rows(), 0u);

  const auto per_source = snap.CombinedArticlesPerSource();
  ASSERT_EQ(per_source.size(), snap.num_sources());
  const std::uint64_t total = std::accumulate(
      per_source.begin(), per_source.end(), std::uint64_t{0});
  EXPECT_EQ(total, snap.delta_mentions()) << "generation " << g;
  // Every mention tick contributes exactly kMentionsPerTick articles
  // from its own fresh domain.
  for (std::size_t s = 0; s < per_source.size(); ++s) {
    EXPECT_EQ(per_source[s], kMentionsPerTick) << "source " << s;
    EXPECT_EQ(snap.source_domain(static_cast<std::uint32_t>(s)),
              "d" + std::to_string(s) + ".com");
  }
  EXPECT_EQ(snap.CombinedArticlesAboutCountry(country::kUSA),
            snap.delta_mentions())
      << "generation " << g;

  const auto top = snap.CombinedTopSources(3);
  EXPECT_EQ(top.size(), std::min<std::size_t>(3, per_source.size()));
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(per_source[top[i - 1]], per_source[top[i]]);
  }

  // The snapshot is frozen: after all of the scans above, the generation
  // it reports is still the one we started from.
  EXPECT_EQ(snap.generation(), g);
}

TEST(DeltaSnapshotStressTest, MultiAccessorRendersAreSingleGeneration) {
  DeltaStore delta(nullptr);
  std::atomic<bool> done{false};

  // Readers first: each performs a minimum number of renders even if the
  // ingester outruns them (ticks are fast on an unloaded box), so the
  // mid-stream generations are actually exercised, not just the final
  // one.
  constexpr int kReaders = 4;
  constexpr std::uint64_t kMinRendersPerReader = 100;
  std::vector<std::thread> readers;
  std::atomic<std::uint64_t> renders{0};
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::uint64_t local = 0;
      while (!done.load(std::memory_order_acquire) ||
             local < kMinRendersPerReader) {
        const auto snap = delta.Acquire();
        CheckSnapshotConsistent(*snap);
        ++local;
      }
      renders.fetch_add(local, std::memory_order_relaxed);
    });
  }

  std::thread ingester([&] {
    for (int tick = 1; tick <= kTicks; ++tick) {
      if (tick % 2 == 1) {
        // gid encodes the tick so every event is unique.
        ASSERT_TRUE(delta.IngestEventsCsv(EventRow(10'000 + tick)).ok());
      } else {
        const std::uint64_t event_gid = 10'000 + tick - 1;
        const std::string domain =
            "d" + std::to_string(tick / 2 - 1) + ".com";
        std::string csv;
        for (std::uint64_t m = 0; m < kMentionsPerTick; ++m) {
          csv += MentionRow(event_gid, domain);
        }
        ASSERT_TRUE(delta.IngestMentionsCsv(csv).ok());
      }
    }
    done.store(true, std::memory_order_release);
  });

  ingester.join();
  for (auto& t : readers) t.join();
  EXPECT_GE(renders.load(), kReaders * kMinRendersPerReader);

  // Final state, read through the store's own forwarding accessors.
  const auto final_snap = delta.Acquire();
  EXPECT_EQ(final_snap->generation(), static_cast<std::uint64_t>(kTicks));
  CheckSnapshotConsistent(*final_snap);
}

TEST(DeltaSnapshotStressTest, HeldSnapshotIsImmuneToLaterTicks) {
  DeltaStore delta(nullptr);
  ASSERT_TRUE(delta.IngestEventsCsv(EventRow(1)).ok());
  ASSERT_TRUE(
      delta.IngestMentionsCsv(MentionRow(1, "d0.com") + MentionRow(1, "d0.com") +
                              MentionRow(1, "d0.com"))
          .ok());

  const auto held = delta.Acquire();
  const std::string_view held_domain = held->source_domain(0);
  ASSERT_EQ(held->generation(), 2u);

  // Pile on ticks; the held snapshot must not move, and the view it
  // handed out must stay valid (the chunk is pinned by the shared_ptr).
  for (int tick = 3; tick <= 40; ++tick) {
    if (tick % 2 == 1) {
      ASSERT_TRUE(delta.IngestEventsCsv(EventRow(tick)).ok());
    } else {
      ASSERT_TRUE(
          delta.IngestMentionsCsv(
                   MentionRow(tick - 1, "x" + std::to_string(tick) + ".org"))
              .ok());
    }
  }
  EXPECT_EQ(delta.Generation(), 40u);
  EXPECT_EQ(held->generation(), 2u);
  EXPECT_EQ(held->delta_mentions(), 3u);
  EXPECT_EQ(held->num_sources(), 1u);
  EXPECT_EQ(held_domain, "d0.com");
  EXPECT_EQ(held->CombinedArticlesAboutCountry(country::kUSA), 3u);
}

}  // namespace
}  // namespace gdelt::stream
