#include "common/fixture.hpp"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <utility>

#include "convert/converter.hpp"
#include "gen/emit.hpp"
#include "gen/generator.hpp"
#include "io/file.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

namespace gdelt::bench {
namespace {

struct Env {
  gen::GeneratorConfig config;
  std::string raw_dir;
  std::string db_dir;
};

const Env& GetEnv() {
  static const Env env = [] {
    Env e;
    const char* preset_env = std::getenv("GDELT_BENCH_PRESET");
    const std::string preset = preset_env ? preset_env : "medium";
    if (preset == "tiny") {
      e.config = gen::GeneratorConfig::Tiny();
    } else if (preset == "small") {
      e.config = gen::GeneratorConfig::Small();
    } else {
      e.config = gen::GeneratorConfig::Medium();
    }
    if (const char* seed_env = std::getenv("GDELT_BENCH_SEED")) {
      e.config.seed = std::strtoull(seed_env, nullptr, 10);
    }
    const char* tmp = std::getenv("TMPDIR");
    const std::string base = std::string(tmp ? tmp : "/tmp") +
                             "/gdelt_bench_cache_" + preset + "_s" +
                             std::to_string(e.config.seed);
    e.raw_dir = base + "/raw";
    e.db_dir = base + "/db";

    if (!FileExists(e.db_dir + "/mentions.tbl")) {
      std::fprintf(stderr,
                   "[bench fixture] building %s dataset into %s ...\n",
                   preset.c_str(), base.c_str());
      WallTimer timer;
      const gen::RawDataset dataset = gen::GenerateDataset(e.config);
      auto emitted = gen::EmitDataset(dataset, e.config, e.raw_dir);
      if (!emitted.ok()) {
        std::fprintf(stderr, "generate failed: %s\n",
                     emitted.status().ToString().c_str());
        std::abort();
      }
      convert::ConvertOptions options;
      options.input_dir = e.raw_dir;
      options.output_dir = e.db_dir;
      auto report = convert::ConvertDataset(options);
      if (!report.ok()) {
        std::fprintf(stderr, "convert failed: %s\n",
                     report.status().ToString().c_str());
        std::abort();
      }
      std::fprintf(stderr, "[bench fixture] ready in %.1fs\n",
                   timer.ElapsedSeconds());
    }
    return e;
  }();
  return env;
}

}  // namespace

const gen::GeneratorConfig& Config() { return GetEnv().config; }
const std::string& RawDir() { return GetEnv().raw_dir; }
const std::string& DbDir() { return GetEnv().db_dir; }

const engine::Database& Db() {
  static const engine::Database db = [] {
    auto loaded = engine::Database::Load(DbDir());
    if (!loaded.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   loaded.status().ToString().c_str());
      std::abort();
    }
    return std::move(*loaded);
  }();
  return db;
}

BenchJsonWriter::BenchJsonWriter(std::string bench_name)
    : name_(std::move(bench_name)) {}

BenchJsonWriter::~BenchJsonWriter() {
  if (!written_ && !entries_.empty()) Flush();
}

void BenchJsonWriter::Record(const std::string& kernel, int threads,
                             double wall_seconds) {
  entries_.push_back({kernel, threads, wall_seconds});
  written_ = false;
}

std::string BenchJsonWriter::Flush() {
  const char* dir_env = std::getenv("GDELT_BENCH_JSON_DIR");
  const std::string path =
      std::string(dir_env ? dir_env : ".") + "/BENCH_" + name_ + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "[bench json] cannot write %s\n", path.c_str());
    return path;
  }
  const char* preset_env = std::getenv("GDELT_BENCH_PRESET");
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"preset\": \"%s\",\n"
               "  \"seed\": %llu,\n  \"entries\": [\n",
               name_.c_str(), preset_env ? preset_env : "medium",
               static_cast<unsigned long long>(Config().seed));
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    std::fprintf(f, "    {\"kernel\": \"%s\", \"threads\": %d, "
                 "\"wall_s\": %.6f}%s\n",
                 entries_[i].kernel.c_str(), entries_[i].threads,
                 entries_[i].wall_seconds, i + 1 < entries_.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "[bench json] wrote %s (%zu entries)\n", path.c_str(),
               entries_.size());
  written_ = true;
  return path;
}

void PrintQuarterSeries(const char* title,
                        const engine::QuarterSeries& series) {
  std::printf("%s\n", title);
  for (std::size_t q = 0; q < series.values.size(); ++q) {
    std::printf("  %s  %s\n",
                QuarterLabel(series.first_quarter +
                             static_cast<QuarterId>(q))
                    .c_str(),
                WithThousands(series.values[q]).c_str());
  }
}

void PrintCount(const char* label, std::uint64_t value) {
  std::printf("  %-42s %s\n", label, WithThousands(value).c_str());
}

}  // namespace gdelt::bench
