// Shared environment for the reproduction benches.
//
// Every bench binary works against the same deterministic synthetic GDELT
// dataset: generated once into a per-preset cache directory, converted to
// the binary format once, then loaded by each binary. Set
// GDELT_BENCH_PRESET=tiny|small|medium (default: medium, the paper's full
// 2015-02-18..2019-12-31 window at 1/10 source scale) and GDELT_BENCH_SEED
// to vary it.
#pragma once

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "engine/database.hpp"
#include "engine/queries.hpp"
#include "gen/config.hpp"

namespace gdelt::bench {

/// The generator configuration selected via environment.
const gen::GeneratorConfig& Config();

/// Directory with the raw chunk archives (generated on first use).
const std::string& RawDir();

/// Directory with the converted binary database.
const std::string& DbDir();

/// The loaded, indexed database (loaded on first use).
const engine::Database& Db();

/// Machine-readable perf records, so future PRs have a trajectory to
/// compare against. Collects (kernel variant, threads, wall seconds)
/// entries and writes them as BENCH_<name>.json into the directory named
/// by GDELT_BENCH_JSON_DIR (default: current directory). The file holds
/// one JSON object: {"bench", "preset", "seed", "entries": [...]}.
class BenchJsonWriter {
 public:
  /// `bench_name` becomes the file stem: BENCH_<bench_name>.json.
  explicit BenchJsonWriter(std::string bench_name);
  /// Writes the file (no-op if Record was never called).
  ~BenchJsonWriter();

  BenchJsonWriter(const BenchJsonWriter&) = delete;
  BenchJsonWriter& operator=(const BenchJsonWriter&) = delete;

  /// Adds one timing record.
  void Record(const std::string& kernel, int threads, double wall_seconds);

  /// Writes BENCH_<name>.json now; returns the path written.
  std::string Flush();

 private:
  struct Entry {
    std::string kernel;
    int threads;
    double wall_seconds;
  };
  std::string name_;
  std::vector<Entry> entries_;
  bool written_ = false;
};

/// Prints a per-quarter series in the paper's row format.
void PrintQuarterSeries(const char* title, const engine::QuarterSeries& s);

/// Prints "label: value" with thousands separators.
void PrintCount(const char* label, std::uint64_t value);

/// Standard main: run registered benchmarks, then print the reproduction.
#define GDELT_BENCH_MAIN(print_fn)                                  \
  int main(int argc, char** argv) {                                 \
    ::benchmark::Initialize(&argc, argv);                           \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) {     \
      return 1;                                                     \
    }                                                               \
    ::benchmark::RunSpecifiedBenchmarks();                          \
    ::benchmark::Shutdown();                                        \
    print_fn();                                                     \
    return 0;                                                       \
  }

}  // namespace gdelt::bench
