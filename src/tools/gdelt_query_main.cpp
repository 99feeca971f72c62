// gdelt_query: runs the paper's analyses against a converted binary
// database and prints the corresponding table/figure data.
//
// The query dispatch and text rendering live in serve::RenderQuery, which
// is shared with the gdelt_serve daemon so both produce byte-identical
// output. Only `scaling` stays here: it times one query on private pools
// of 1, 2, 4, ... workers, which a shared server has no use for.
//
// Usage: gdelt_query --db <dir> --query <name> [--top N] [--threads N]
//   queries: stats | top-sources | top-events | quarterly | coreport |
//            follow | country-coreport | cross-report | delay | tone |
//            first-reports | scaling
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "engine/database.hpp"
#include "engine/filter.hpp"
#include "gtime/timestamp.hpp"
#include "parallel/morsel.hpp"
#include "serve/render.hpp"
#include "trace/trace.hpp"
#include "util/args.hpp"
#include "util/timer.hpp"

using namespace gdelt;

namespace {

int RunScaling(const engine::Database& db) {
  const std::size_t max_workers = parallel::CurrentPool().num_workers();
  std::printf("Aggregated-query scaling (cf. Fig 12):\n");
  for (std::size_t t = 1; t <= max_workers; t *= 2) {
    parallel::MorselPool pool(static_cast<int>(t));
    const parallel::ScopedPool use_pool(pool);
    WallTimer timer;
    const auto report = engine::CountryCrossReporting(db);
    (void)report;
    std::printf("  %2zu worker(s): %.3fs\n", t, timer.ElapsedSeconds());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(
      "Runs the paper's analyses against a converted binary GDELT "
      "database.");
  args.AddString("db", "gdelt_db", "binary database directory");
  args.AddString("query", "stats",
                 "stats | top-sources | top-events | quarterly | coreport | "
                 "follow | country-coreport | cross-report | delay | scaling");
  args.AddInt("top", 10, "number of rows for top-k queries");
  args.AddInt("threads", 0,
              "morsel-pool workers (0 = OMP_NUM_THREADS, else cores)");
  args.AddString("from", "",
                 "restrict top-sources/coreport/cross-report to captures "
                 "at/after this YYYYMMDDHHMMSS timestamp");
  args.AddString("to", "",
                 "restrict to captures before this YYYYMMDDHHMMSS timestamp");
  args.AddInt("min-confidence", 0,
              "restrict to mentions with at least this GDELT confidence");
  args.AddString("trace-out", "",
                 "enable span tracing and write a Chrome trace_event JSON "
                 "file here after the query");
  args.AddBool("help", false, "print usage");
  if (const Status s = args.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "%s\n%s", s.ToString().c_str(),
                 args.HelpText().c_str());
    return 2;
  }
  if (args.GetBool("help")) {
    std::printf("%s", args.HelpText().c_str());
    return 0;
  }
  // --threads runs every loop of this process on a private pool of that
  // many workers instead of the default-sized shared one.
  std::unique_ptr<parallel::MorselPool> pool;
  std::optional<parallel::ScopedPool> use_pool;
  if (args.GetInt("threads") > 0) {
    pool = std::make_unique<parallel::MorselPool>(
        static_cast<int>(args.GetInt("threads")));
    use_pool.emplace(*pool);
  }
  const std::string trace_out = args.GetString("trace-out");
  if (!trace_out.empty()) trace::SetEnabled(true);

  WallTimer load_timer;
  auto db = engine::Database::Load(args.GetString("db"));
  if (!db.ok()) {
    std::fprintf(stderr, "load failed: %s\n", db.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "[load took %.2fs]\n", load_timer.ElapsedSeconds());

  serve::Request request;
  request.kind = args.GetString("query");
  request.top_k = static_cast<std::size_t>(args.GetInt("top"));
  if (!args.GetString("from").empty()) {
    const auto t = ParseGdeltTimestamp(args.GetString("from"));
    if (!t.ok()) {
      std::fprintf(stderr, "bad --from: %s\n", t.status().ToString().c_str());
      return 2;
    }
    request.filter.begin_interval = IntervalOfCivil(t.value());
    request.restricted = true;
  }
  if (!args.GetString("to").empty()) {
    const auto t = ParseGdeltTimestamp(args.GetString("to"));
    if (!t.ok()) {
      std::fprintf(stderr, "bad --to: %s\n", t.status().ToString().c_str());
      return 2;
    }
    request.filter.end_interval = IntervalOfCivil(t.value());
    request.restricted = true;
  }
  if (args.GetInt("min-confidence") > 0) {
    request.filter.min_confidence =
        static_cast<std::uint8_t>(args.GetInt("min-confidence"));
    request.restricted = true;
  }

  WallTimer query_timer;
  int rc = 0;
  if (request.kind == "scaling") {
    rc = RunScaling(*db);
  } else {
    const auto rendered = serve::RenderQuery(*db, request);
    if (!rendered.ok()) {
      std::fprintf(stderr, "%s\n", rendered.status().message().c_str());
      rc = 2;
    } else {
      if (!rendered->note.empty()) {
        std::fprintf(stderr, "%s\n", rendered->note.c_str());
      }
      std::fputs(rendered->text.c_str(), stdout);
    }
  }
  std::fprintf(stderr, "[query took %.3fs]\n", query_timer.ElapsedSeconds());
  if (!trace_out.empty()) {
    if (const Status s = trace::WriteChromeTrace(trace_out); !s.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n", s.ToString().c_str());
    } else {
      std::fprintf(stderr, "[trace written to %s]\n", trace_out.c_str());
    }
  }
  return rc;
}
