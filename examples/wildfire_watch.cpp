// Example: identifying the "fast pool" of near-real-time news sources.
//
// The paper's motivation is tracking digital wildfires — fast-spreading
// misinformation. Section VI-E closes: the several hundred publishers
// that typically report in under two hours "represent a most important
// pool of core news sources that are as close to real time reporting as
// possible". This example computes per-source delay statistics, splits
// sources into the paper's slow / average / fast groups, lists the fast
// pool, and then replays the biggest event hour by hour showing how far a
// wildfire monitor restricted to the fast pool would lag.
//
// Usage: ./examples/wildfire_watch [work_dir]
#include <algorithm>
#include <cstdio>

#include "analysis/delay.hpp"
#include "convert/converter.hpp"
#include "engine/queries.hpp"
#include "gen/emit.hpp"
#include "gen/generator.hpp"
#include "util/strings.hpp"

using namespace gdelt;

namespace {

/// The paper's source speed taxonomy from Section VI-E.
enum class Pool { kFast, kAverage, kSlow };

Pool Classify(const analysis::DelayStats& st) {
  if (st.median < 8) return Pool::kFast;       // < 2 hours
  if (st.median <= 96) return Pool::kAverage;  // 24-hour news cycle
  return Pool::kSlow;                          // days to months behind
}

}  // namespace

int main(int argc, char** argv) {
  const std::string work_dir = argc > 1 ? argv[1] : "wildfire_data";

  gen::GeneratorConfig config = gen::GeneratorConfig::Small();
  config.num_sources = 600;
  config.events_per_interval_mean = 1.5;
  std::printf("Generating one year of synthetic GDELT ...\n");
  const gen::RawDataset dataset = gen::GenerateDataset(config);
  if (const auto e = gen::EmitDataset(dataset, config, work_dir + "/raw");
      !e.ok()) {
    std::fprintf(stderr, "%s\n", e.status().ToString().c_str());
    return 1;
  }
  convert::ConvertOptions options;
  options.input_dir = work_dir + "/raw";
  options.output_dir = work_dir + "/db";
  if (const auto r = convert::ConvertDataset(options); !r.ok()) {
    std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
    return 1;
  }
  auto db = engine::Database::Load(work_dir + "/db");
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }

  // --- Speed taxonomy ------------------------------------------------------
  const auto stats =
      analysis::PerSourceDelayStats(*db, engine::AllSources(*db));
  std::vector<std::uint32_t> fast_pool;
  int n_fast = 0, n_avg = 0, n_slow = 0;
  for (std::uint32_t s = 0; s < db->num_sources(); ++s) {
    if (stats[s].article_count < 10) continue;  // too little signal
    switch (Classify(stats[s])) {
      case Pool::kFast:
        ++n_fast;
        fast_pool.push_back(s);
        break;
      case Pool::kAverage: ++n_avg; break;
      case Pool::kSlow: ++n_slow; break;
    }
  }
  std::printf("\nSource speed groups (median delay): %d fast (<2h), "
              "%d average (24h cycle), %d slow (paper: a several-hundred "
              "strong fast pool, a large average group, a large slow "
              "group)\n", n_fast, n_avg, n_slow);

  std::sort(fast_pool.begin(), fast_pool.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return stats[a].median < stats[b].median;
            });
  std::printf("\nFastest wildfire-monitoring sources:\n");
  for (std::size_t k = 0; k < fast_pool.size() && k < 10; ++k) {
    const auto s = fast_pool[k];
    std::printf("  %-26s median %lld intervals (%lld min), %s articles\n",
                std::string(db->source_domain(s)).c_str(),
                static_cast<long long>(stats[s].median),
                static_cast<long long>(stats[s].median * 15),
                WithThousands(stats[s].article_count).c_str());
  }

  // --- Replay the biggest story through the fast pool ----------------------
  const auto top_events = engine::TopReportedEvents(*db, 1);
  if (top_events.empty()) return 0;
  const auto event_row = top_events[0].event_row;
  std::printf("\nReplaying the most reported event (%u articles):\n",
              top_events[0].articles);
  std::vector<bool> in_fast_pool(db->num_sources(), false);
  for (const auto s : fast_pool) in_fast_pool[s] = true;

  const auto when = db->mention_interval();
  const auto event_when = db->mention_event_interval();
  const auto src = db->mention_source_id();
  const auto rows = db->mentions_by_event().RowsOf(event_row);
  // Coverage at 1h, 2h, 6h, 24h after the event: all sources vs fast pool.
  for (const std::int64_t horizon : {4, 8, 24, 96}) {
    std::uint64_t all = 0;
    std::uint64_t fast = 0;
    for (const std::uint64_t row : rows) {
      const std::int64_t delay = when[row] - event_when[row];
      if (delay < 0 || delay > horizon) continue;
      ++all;
      if (in_fast_pool[src[row]]) ++fast;
    }
    std::printf("  within %3lld h: %4llu articles total, %4llu from the "
                "fast pool\n", static_cast<long long>(horizon / 4),
                static_cast<unsigned long long>(all),
                static_cast<unsigned long long>(fast));
  }
  std::printf("\nA monitor subscribed only to the fast pool sees the story "
              "almost as early as one ingesting everything — the paper's "
              "argument for curating this pool.\n");
  return 0;
}
