// Deterministic request plans of the benchmark workloads.
//
// Everything a run sends is fixed by (workload, seed, dataset): the same
// seed gives the same request lines in the same order on every run, so two
// runs differ only in how fast the system answers, never in what it is
// asked. Request lines are interned in a Catalog; the load generator and
// the correctness gate refer to them by key id.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace e2e {

enum class Workload { kAnalyst, kDashboard };

/// "analyst" | "dashboard"; false for anything else.
bool ParseWorkload(std::string_view name, Workload& out);

/// splitmix64: tiny, fast, and identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  /// Uniform in [0, n).
  std::uint64_t Below(std::uint64_t n) { return n == 0 ? 0 : Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Distinct request lines (no trailing newline), indexed by key id.
struct Catalog {
  std::vector<std::string> lines;
  /// True for the kinds the server runs in its batch lane.
  std::vector<bool> batch;
  std::unordered_map<std::string, int> index;

  int Add(const std::string& line);
  std::size_t size() const { return lines.size(); }
};

/// The same line with `"trace":true` spliced in before the closing brace.
std::string Traced(std::string_view line);

/// An (export, mentions) archive pair, absolute paths.
using ArchivePair = std::pair<std::string, std::string>;

/// Every complete archive pair listed in `<dir>/masterfilelist.txt`, in
/// capture order (pairs with a missing side are skipped).
std::vector<ArchivePair> ListArchivePairs(const std::string& dir);

std::string IngestLine(const ArchivePair& pair);

struct Plan {
  Workload workload = Workload::kAnalyst;
  std::uint64_t seed = 0;
  Catalog catalog;
  /// One request per query kind the workload uses, sent during set-up.
  std::vector<int> warmup;

  // analyst: one connection cycles these keys.
  std::vector<int> analyst_cycle;

  // dashboard: a page is the constant widgets plus the window widgets of
  // one Zipf-drawn window. Window w's widgets are keys
  // window_base + w * kWindowWidgets + j. The batch connection walks
  // batch_walk.
  std::vector<int> page_constants;
  int window_base = 0;
  int num_windows = 0;
  std::vector<double> zipf_cdf;        ///< by popularity rank
  std::vector<int> rank_to_window;     ///< seeded permutation
  std::vector<int> batch_walk;

  /// [0] is the set-up warm-up ingest, [1, kProbeIngests] the probes.
  std::vector<ArchivePair> ingests;
};

inline constexpr int kAnalystRounds = 8;
inline constexpr int kWindowWidgets = 4;
/// dashboard: page connections, plus one batch connection.
inline constexpr int kPageConnections = 3;
/// Sequential ingests on the idle deployment before the window.
inline constexpr int kProbeIngests = 20;

/// `days` is the number of calendar days the dataset covers, counted from
/// 2015-02-18 (the generator's first capture day for every preset).
Plan MakePlan(Workload w, std::uint64_t seed, int days,
              std::vector<ArchivePair> archives);

/// The page stream of dashboard connection `connection`.
inline Rng PageRng(const Plan& plan, int connection) {
  return Rng(plan.seed * 977 + static_cast<std::uint64_t>(connection));
}

/// Key ids of the next dashboard page drawn from `rng`.
std::vector<int> NextPage(const Plan& plan, Rng& rng);

}  // namespace e2e
