#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>

#include "gtime/timestamp.hpp"
#include "serve/protocol.hpp"
#include "util/strings.hpp"

namespace e2e {
namespace {

const std::vector<std::string> kAllKinds = {
    "stats",    "top-sources", "top-events",   "quarterly",
    "coreport", "follow",      "country-coreport", "cross-report",
    "delay",    "tone",        "first-reports"};

/// Capture timestamp of midnight `day` days after 2015-02-18.
std::string DayStamp(int day) {
  std::int32_t y = 0;
  unsigned m = 0;
  unsigned d = 0;
  gdelt::CivilFromDays(gdelt::DaysFromCivil(2015, 2, 18) + day, y, m, d);
  gdelt::CivilDateTime t;
  t.year = y;
  t.month = static_cast<std::uint8_t>(m);
  t.day = static_cast<std::uint8_t>(d);
  return gdelt::FormatGdeltTimestamp(t);
}

struct Query {
  std::string kind;
  int top = 0;  ///< 0 = server default
  int from_day = -1;
  int length_days = 0;
  int min_confidence = 0;

  std::string Line() const {
    std::string out = "{\"query\":\"" + kind + "\"";
    if (top > 0) out += ",\"top\":" + std::to_string(top);
    if (from_day >= 0) {
      out += ",\"from\":\"" + DayStamp(from_day) + "\",\"to\":\"" +
             DayStamp(from_day + length_days) + "\"";
    }
    if (min_confidence > 0) {
      out += ",\"min_confidence\":" + std::to_string(min_confidence);
    }
    return out + "}";
  }
};

std::vector<int> Permutation(int n, Rng& rng) {
  std::vector<int> p(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) p[static_cast<std::size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i) {
    std::swap(p[static_cast<std::size_t>(i)],
              p[rng.Below(static_cast<std::uint64_t>(i) + 1)]);
  }
  return p;
}

/// A window of `length` days (clipped to the dataset) at a seeded start.
Query Windowed(std::string kind, int length, int days, Rng& rng) {
  Query q{std::move(kind)};
  q.length_days = std::min(length, days);
  q.from_day = static_cast<int>(
      rng.Below(static_cast<std::uint64_t>(days - q.length_days + 1)));
  return q;
}

/// The shapes each analyst kind is asked in: (top, window days, 0 =
/// unrestricted, min_confidence). Every seed uses exactly these, one per
/// round, so every seed's cycle holds the same cost mix; the seed picks
/// their order and the window positions.
struct Variant {
  int top;
  int length_days;
  int min_confidence;
};
constexpr Variant kAnalystVariants[kAnalystRounds] = {
    {10, 0, 0}, {5, 7, 50},  {20, 30, 0},  {10, 365, 20},
    {5, 90, 80}, {20, 0, 50}, {10, 30, 20}, {5, 7, 0}};

void MakeAnalyst(Plan& p, int days, Rng& rng) {
  std::vector<std::vector<int>> variant_of_round;
  for (std::size_t k = 0; k < kAllKinds.size(); ++k) {
    variant_of_round.push_back(Permutation(kAnalystRounds, rng));
  }
  for (int round = 0; round < kAnalystRounds; ++round) {
    for (const int k : Permutation(static_cast<int>(kAllKinds.size()), rng)) {
      const Variant& v = kAnalystVariants[variant_of_round[static_cast<std::size_t>(
          k)][static_cast<std::size_t>(round)]];
      const std::string& kind = kAllKinds[static_cast<std::size_t>(k)];
      Query q = v.length_days > 0 ? Windowed(kind, v.length_days, days, rng)
                                  : Query{kind};
      q.top = v.top;
      q.min_confidence = v.min_confidence;
      p.analyst_cycle.push_back(p.catalog.Add(q.Line()));
    }
  }
  for (const std::string& kind : kAllKinds) {
    p.warmup.push_back(p.catalog.Add(Query{kind}.Line()));
  }
}

constexpr int kDashboardWindowDays = 7;
/// Zipf exponent of window popularity: with 4 window widgets per page the
/// key space is several times the 1024-entry cache, and this skew gives
/// both hits on popular windows and eviction misses on the tail.
constexpr double kZipfExponent = 1.0;

void MakeDashboard(Plan& p, int days, Rng& rng) {
  for (const Query& q : {Query{"stats"}, Query{"top-events", 10},
                         Query{"tone"}, Query{"top-sources", 10}}) {
    p.page_constants.push_back(p.catalog.Add(q.Line()));
  }
  const int length = std::min(kDashboardWindowDays, days);
  p.num_windows = days - length + 1;
  p.window_base = static_cast<int>(p.catalog.size());
  for (int w = 0; w < p.num_windows; ++w) {
    Query ts{"top-sources", 10, w, length};
    Query ts_conf = ts;
    ts_conf.min_confidence = 50;
    Query cross{"cross-report", 0, w, length};
    Query co{"coreport", 5, w, length};
    for (const Query& q : {ts, ts_conf, cross, co}) p.catalog.Add(q.Line());
  }
  double total = 0;
  for (int r = 0; r < p.num_windows; ++r) {
    total += 1.0 / std::pow(r + 1.0, kZipfExponent);
    p.zipf_cdf.push_back(total);
  }
  for (double& c : p.zipf_cdf) c /= total;
  p.rank_to_window = Permutation(p.num_windows, rng);

  // The batch connection: windowed batch-lane kinds whose keys repeat only
  // after the whole walk (thousands of requests), so each one runs in the
  // batch lane instead of being answered from the cache. Start days follow
  // a golden-ratio walk from a seeded first day, and each asks all lengths
  // and kinds in a row: any stretch of the walk covers the dataset evenly,
  // so every seed asks the same cost mix. A stride coprime to `days`
  // visits every day once.
  static const char* kBatchKinds[] = {"coreport", "follow", "first-reports"};
  int stride = static_cast<int>(days * 0.6180339887);
  while (std::gcd(stride, days) != 1) ++stride;
  const auto first = static_cast<std::int64_t>(rng.Below(static_cast<std::uint64_t>(days)));
  for (std::int64_t k = 0; k < days; ++k) {
    const auto start = static_cast<int>((first + k * stride) % days);
    for (const int length : {7, 30, 90}) {
      for (const char* kind : kBatchKinds) {
        Query q{kind, 10, start, std::min(length, days - start)};
        if (q.length_days < 1) continue;
        p.batch_walk.push_back(p.catalog.Add(q.Line()));
      }
    }
  }
  for (const Query& q :
       {Query{"stats"}, Query{"top-events", 10}, Query{"tone"},
        Query{"top-sources", 10}, Query{"cross-report"}, Query{"coreport", 5},
        Query{"follow", 10}, Query{"first-reports", 10}}) {
    p.warmup.push_back(p.catalog.Add(q.Line()));
  }
}

}  // namespace

bool ParseWorkload(std::string_view name, Workload& out) {
  if (name == "analyst") {
    out = Workload::kAnalyst;
  } else if (name == "dashboard") {
    out = Workload::kDashboard;
  } else {
    return false;
  }
  return true;
}

std::uint64_t Rng::Next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

int Catalog::Add(const std::string& line) {
  const auto [it, inserted] = index.emplace(line, static_cast<int>(lines.size()));
  if (inserted) {
    lines.push_back(line);
    const auto at = line.find("\"query\":\"") + 9;
    batch.push_back(gdelt::serve::IsBatchQueryKind(
        std::string_view(line).substr(at, line.find('"', at) - at)));
  }
  return it->second;
}

std::string Traced(std::string_view line) {
  std::string out(line.substr(0, line.rfind('}')));
  return out + ",\"trace\":true}";
}

std::vector<ArchivePair> ListArchivePairs(const std::string& dir) {
  namespace fs = std::filesystem;
  std::ifstream in(dir + "/masterfilelist.txt");
  std::map<std::string, ArchivePair> by_stamp;
  std::string line;
  while (std::getline(in, line)) {
    const std::string name = line.substr(line.rfind(' ') + 1);
    const fs::path path = fs::absolute(fs::path(dir) / name);
    if (name.size() < 14 || !fs::exists(path)) continue;
    const std::string stamp = name.substr(0, 14);
    if (gdelt::EndsWith(name, ".export.CSV.zip")) {
      by_stamp[stamp].first = path.string();
    } else if (gdelt::EndsWith(name, ".mentions.CSV.zip")) {
      by_stamp[stamp].second = path.string();
    }
  }
  std::vector<ArchivePair> out;
  for (const auto& [stamp, pair] : by_stamp) {
    if (!pair.first.empty() && !pair.second.empty()) out.push_back(pair);
  }
  return out;
}

std::string IngestLine(const ArchivePair& pair) {
  return "{\"query\":\"ingest\",\"export\":\"" + pair.first +
         "\",\"mentions\":\"" + pair.second + "\"}";
}

Plan MakePlan(Workload w, std::uint64_t seed, int days,
              std::vector<ArchivePair> archives) {
  Plan p;
  p.workload = w;
  p.seed = seed;
  // Each workload draws from its own stream, so the plans of one
  // seed are independent of each other.
  Rng rng(seed * 3 + static_cast<std::uint64_t>(w));
  switch (w) {
    case Workload::kAnalyst:
      MakeAnalyst(p, days, rng);
      break;
    case Workload::kDashboard:
      MakeDashboard(p, days, rng);
      break;
  }
  // The same archives in capture order on every seed: ingest cost depends
  // on the archive, and the write schedule is meant to be fixed.
  p.ingests = std::move(archives);
  return p;
}

std::vector<int> NextPage(const Plan& plan, Rng& rng) {
  const double u = rng.Unit();
  const auto rank = static_cast<std::size_t>(
      std::lower_bound(plan.zipf_cdf.begin(), plan.zipf_cdf.end(), u) -
      plan.zipf_cdf.begin());
  const int window =
      plan.rank_to_window[std::min(rank, plan.rank_to_window.size() - 1)];
  std::vector<int> page = plan.page_constants;
  for (int j = 0; j < kWindowWidgets; ++j) {
    page.push_back(plan.window_base + window * kWindowWidgets + j);
  }
  return page;
}

}  // namespace e2e
