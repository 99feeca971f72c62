// Ingest-vs-query contention on the streaming delta path: the ROADMAP
// item 2 proof. One ingester publishes 15-minute-style ticks on a fixed
// pace while 1/8/32 reader threads hammer the multi-accessor stats
// render (CombinedArticlesPerSource + CombinedTopSources +
// CombinedArticlesAboutCountry + CombinedMentionCount), in two modes:
//
//   mutex     the pre-RCU concurrency profile: every render and every
//             ingest serializes on one global mutex — the discipline a
//             single-lock DeltaStore forces on a torn-read-free
//             multi-accessor render.
//   snapshot  the shipped design: renders run lock-free on one acquired
//             immutable snapshot; the ingester publishes new snapshots
//             concurrently and never blocks a reader.
//
// Both modes execute identical scan code on an identical, deterministic
// dataset (stores are pre-grown with the same chunky tick history; live
// ticks are pre-built, paced, capped and tiny) — the only variable is
// the locking discipline, so the throughput gap is pure contention. The
// q/s ratio needs real hardware parallelism to open up: on >= 8 hardware
// threads mutex mode stays pinned at the serialized render rate while
// snapshot mode scales with min(readers, cores), so the 32-reader ratio
// clears 3x comfortably. On a 1-core container the modes converge to
// ~1.0x across the board — the work-conserving scheduler hands the lone
// CPU to somebody either way — which doubles as a sanity check that the
// two modes really do run the same work. Raise
// GDELT_DELTA_BENCH_TICK_MENTIONS to make live ticks chunky again and
// the mutex-mode pathologies reappear even on one core: p99 render
// latency collapses (readers stuck behind an in-flight ingest holding
// the lock) and the ingester starves (readers' convoy steals the lock),
// at the price of the two modes no longer scanning equal-size data.
//
// Knobs (see EXPERIMENTS.md):
//   GDELT_DELTA_BENCH_RENDERS        renders per reader thread     [300]
//   GDELT_DELTA_BENCH_SEED_MENTIONS  mentions pre-loaded           [20000]
//   GDELT_DELTA_BENCH_PREGROW_TICKS  chunky ticks applied pre-run  [100]
//   GDELT_DELTA_BENCH_PREGROW_TICK_MENTIONS  mentions per such tick [200]
//   GDELT_DELTA_BENCH_TICK_MENTIONS  mentions per live ingest tick [20]
//   GDELT_DELTA_BENCH_TICK_PACE_US   ingester sleep between ticks  [1000]
//   GDELT_DELTA_BENCH_MAX_TICKS      live ingest ticks per scenario [50]
//
// Writes BENCH_delta_contention.json (kernel = mutex|snapshot, threads =
// reader count; fixed work per scenario, so wall_s ratios are inverse
// throughput ratios).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/fixture.hpp"
#include "schema/countries.hpp"
#include "schema/gdelt_schema.hpp"
#include "stream/delta_store.hpp"
#include "util/sync.hpp"
#include "util/timer.hpp"

namespace gdelt::bench {
namespace {

std::size_t Knob(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? static_cast<std::size_t>(std::strtoull(v, nullptr, 10))
                      : fallback;
}

const std::size_t kSeedEvents = 2'000;
const std::size_t kSeedSources = 64;
const std::size_t kRendersPerReader = Knob("GDELT_DELTA_BENCH_RENDERS", 300);
const std::size_t kSeedMentions =
    Knob("GDELT_DELTA_BENCH_SEED_MENTIONS", 20'000);
// Both stores are pre-grown with the same chunky tick history before the
// window opens, so renders in both modes scan an identical ~100-chunk
// dataset shaped like a store that has been live all day.
const std::size_t kPregrowTicks = Knob("GDELT_DELTA_BENCH_PREGROW_TICKS", 100);
const std::size_t kPregrowTickMentions =
    Knob("GDELT_DELTA_BENCH_PREGROW_TICK_MENTIONS", 200);
// Live ticks stay small and capped: a mutex-mode run starves the
// ingester (the readers' convoy steals the lock), so any sizable live
// growth would leave the two modes scanning different dataset sizes and
// poison the q/s comparison. 50 ticks x 20 mentions is < 3% growth.
const std::size_t kMentionsPerTick =
    Knob("GDELT_DELTA_BENCH_TICK_MENTIONS", 20);
const std::size_t kTickPaceUs = Knob("GDELT_DELTA_BENCH_TICK_PACE_US", 1'000);
const std::size_t kMaxTicks = Knob("GDELT_DELTA_BENCH_MAX_TICKS", 50);
const int kReaderCounts[] = {1, 8, 32};

std::string JoinRow(const std::vector<std::string>& fields) {
  std::string row;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    row += fields[i];
    row += i + 1 < fields.size() ? '\t' : '\n';
  }
  return row;
}

std::string EventRow(std::uint64_t gid, bool usa) {
  std::vector<std::string> f(kEventFieldCount);
  f[Index(EventField::kGlobalEventId)] = std::to_string(gid);
  f[Index(EventField::kDay)] = "20240101";
  f[Index(EventField::kDateAdded)] = "20240101000000";
  f[Index(EventField::kActionGeoCountryCode)] = usa ? "US" : "FR";
  return JoinRow(f);
}

std::string MentionRow(std::uint64_t gid, const std::string& domain) {
  std::vector<std::string> f(kMentionFieldCount);
  f[Index(MentionField::kGlobalEventId)] = std::to_string(gid);
  f[Index(MentionField::kEventTimeDate)] = "20240101000000";
  f[Index(MentionField::kMentionTimeDate)] = "20240101001500";
  f[Index(MentionField::kMentionSourceName)] = domain;
  return JoinRow(f);
}

/// `count` tick payloads of `mentions_per_tick` mentions each, built once
/// so CSV string assembly never competes with the readers for CPU inside
/// the measured window.
std::vector<std::string> BuildTicks(std::size_t count,
                                    std::size_t mentions_per_tick) {
  std::vector<std::string> ticks(count);
  for (std::size_t t = 0; t < count; ++t) {
    for (std::size_t m = 0; m < mentions_per_tick; ++m) {
      ticks[t] += MentionRow(
          1'000'000 + (t * mentions_per_tick + m) % kSeedEvents,
          "s" + std::to_string(m % kSeedSources) + ".com");
    }
  }
  return ticks;
}

/// A failed ingest would be timed as if it had done the work: abort.
void MustIngest(const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "bench_delta_contention: ingest failed: %s\n",
                 status.ToString().c_str());
    std::abort();
  }
}

/// Fresh store with the same deterministic seed data and chunky
/// pre-grown tick history for every scenario, so both modes render over
/// an identical dataset shape.
void Seed(stream::DeltaStore& delta,
          const std::vector<std::string>& pregrow_ticks) {
  std::string events;
  for (std::size_t e = 0; e < kSeedEvents; ++e) {
    events += EventRow(1'000'000 + e, (e % 2) == 0);
  }
  MustIngest(delta.IngestEventsCsv(events));
  std::string mentions;
  for (std::size_t m = 0; m < kSeedMentions; ++m) {
    mentions += MentionRow(1'000'000 + m % kSeedEvents,
                           "s" + std::to_string(m % kSeedSources) + ".com");
  }
  MustIngest(delta.IngestMentionsCsv(mentions));
  for (const std::string& tick : pregrow_ticks) {
    MustIngest(delta.IngestMentionsCsv(tick));
  }
  // Every seeded row must land, or the bench would time empty ingests.
  if (delta.malformed_rows() != 0) {
    std::fprintf(stderr, "bench_delta_contention: %llu malformed seed rows\n",
                 static_cast<unsigned long long>(delta.malformed_rows()));
    std::abort();
  }
}

/// The multi-accessor stats render under test: one snapshot, four reads.
std::uint64_t RenderOnce(const stream::DeltaStore& delta) {
  const auto snap = delta.Acquire();
  std::uint64_t sink = snap->CombinedMentionCount();
  const auto per_source = snap->CombinedArticlesPerSource();
  sink += per_source.empty() ? 0 : per_source[0];
  const auto top = snap->CombinedTopSources(10);
  sink += top.empty() ? 0 : top[0];
  sink += snap->CombinedArticlesAboutCountry(country::kUSA);
  return sink;
}

struct ScenarioResult {
  double wall_s = 0.0;
  std::uint64_t ticks = 0;  ///< ingest ticks published inside the window
  std::vector<double> latencies_ms;
};

/// Runs one (mode, readers) scenario on a freshly seeded store. In mutex
/// mode `contention_mu` serializes every render and every ingest; in
/// snapshot mode it is never taken. The ingest schedule (payloads, pace,
/// cap) is identical across modes.
ScenarioResult RunScenario(bool use_mutex, int readers,
                           const std::vector<std::string>& pregrow_ticks,
                           const std::vector<std::string>& tick_payloads) {
  stream::DeltaStore delta(nullptr);
  Seed(delta, pregrow_ticks);
  sync::Mutex contention_mu;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ticks{0};

  std::thread ingester([&] {
    for (std::size_t tick = 0;
         tick < kMaxTicks && !stop.load(std::memory_order_acquire); ++tick) {
      if (use_mutex) {
        sync::MutexLock lock(contention_mu);
        MustIngest(delta.IngestMentionsCsv(tick_payloads[tick]));
      } else {
        MustIngest(delta.IngestMentionsCsv(tick_payloads[tick]));
      }
      ticks.store(tick + 1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::microseconds(kTickPaceUs));
    }
  });

  std::vector<std::vector<double>> per_reader(
      static_cast<std::size_t>(readers));
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> sink{0};
  WallTimer timer;
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      auto& latencies = per_reader[static_cast<std::size_t>(r)];
      latencies.reserve(kRendersPerReader);
      for (std::size_t i = 0; i < kRendersPerReader; ++i) {
        WallTimer render_timer;
        std::uint64_t v;
        if (use_mutex) {
          sync::MutexLock lock(contention_mu);
          v = RenderOnce(delta);
        } else {
          v = RenderOnce(delta);
        }
        sink.fetch_add(v, std::memory_order_relaxed);
        latencies.push_back(render_timer.ElapsedSeconds() * 1e3);
      }
    });
  }
  for (auto& t : threads) t.join();
  ScenarioResult result;
  result.wall_s = timer.ElapsedSeconds();
  result.ticks = ticks.load(std::memory_order_relaxed);
  stop.store(true, std::memory_order_release);
  ingester.join();
  for (auto& v : per_reader) {
    result.latencies_ms.insert(result.latencies_ms.end(), v.begin(), v.end());
  }
  return result;
}

void Print() {
  const std::vector<std::string> pregrow_ticks =
      BuildTicks(kPregrowTicks, kPregrowTickMentions);
  const std::vector<std::string> tick_payloads =
      BuildTicks(kMaxTicks, kMentionsPerTick);
  BenchJsonWriter json("delta_contention");
  std::printf(
      "--- delta ingest-vs-query contention (%zu renders/reader, 1 paced "
      "ingester, %zu seed + %zu pre-grown mentions in %zu chunks, "
      "%u hw threads) ---\n",
      kRendersPerReader, kSeedMentions, kPregrowTicks * kPregrowTickMentions,
      kPregrowTicks, std::thread::hardware_concurrency());
  for (const int readers : kReaderCounts) {
    const auto mutex_run =
        RunScenario(/*use_mutex=*/true, readers, pregrow_ticks, tick_payloads);
    const auto snap_run = RunScenario(/*use_mutex=*/false, readers,
                                      pregrow_ticks, tick_payloads);
    json.RecordLatencies("mutex", readers, mutex_run.wall_s,
                         mutex_run.latencies_ms);
    json.RecordLatencies("snapshot", readers, snap_run.wall_s,
                         snap_run.latencies_ms);
    const double total =
        static_cast<double>(readers) * static_cast<double>(kRendersPerReader);
    const double mutex_qps =
        mutex_run.wall_s > 0.0 ? total / mutex_run.wall_s : 0.0;
    const double snap_qps =
        snap_run.wall_s > 0.0 ? total / snap_run.wall_s : 0.0;
    std::printf("  %2d readers: mutex %9.0f q/s (%.3fs, %llu ticks)  "
                "snapshot %9.0f q/s (%.3fs, %llu ticks)  speedup %.2fx\n",
                readers, mutex_qps, mutex_run.wall_s,
                static_cast<unsigned long long>(mutex_run.ticks), snap_qps,
                snap_run.wall_s,
                static_cast<unsigned long long>(snap_run.ticks),
                mutex_qps > 0.0 ? snap_qps / mutex_qps : 0.0);
  }
}

}  // namespace
}  // namespace gdelt::bench

GDELT_BENCH_MAIN(gdelt::bench::Print)
