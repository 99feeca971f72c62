// Byte-pinning golden test for the query renderers.
//
// Renders the partial fixture (partial_fixture.hpp) through RenderQuery
// for every query kind, at top 3 and 50, unfiltered and (for the kinds
// that take a filter) under a time window and a confidence floor, plus
// every partial frame of a 3-way scatter of the decomposable kinds, and
// compares the bytes with the files under tests/golden/. The round-trip
// tests only compare single-node output with merged output; a change
// that alters both sides alike shows up only here.
//
// To re-pin after an intended output change, run the test once: it
// writes what it rendered next to the binary (render.golden.actual,
// frames.golden.actual); review and copy those over tests/golden/.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gtime/timestamp.hpp"
#include "parallel/morsel.hpp"
#include "partial_fixture.hpp"
#include "serve/partial.hpp"
#include "serve/protocol.hpp"
#include "serve/render.hpp"
#include "test_util.hpp"

namespace gdelt::serve {
namespace {

using ::gdelt::testing::TempDir;

constexpr const char* kAllKinds[] = {
    "stats",    "top-sources", "top-events",       "quarterly",
    "coreport", "follow",      "country-coreport", "cross-report",
    "delay",    "tone",        "first-reports",
};

constexpr const char* kPartialKinds[] = {
    "top-sources", "top-events",       "coreport", "follow",
    "country-coreport", "cross-report", "delay",   "first-reports",
};

bool TakesFilter(const std::string& kind) {
  return kind == "top-sources" || kind == "coreport" ||
         kind == "cross-report";
}

/// The request-line suffixes a kind is rendered under: no filter, and for
/// the filterable kinds a capture window and a confidence floor, both of
/// which drop some but not all of the fixture's mentions.
std::vector<std::string> FiltersFor(const std::string& kind) {
  std::vector<std::string> out = {""};
  if (!TakesFilter(kind)) return out;
  const auto stamp = [](std::int64_t interval) {
    return FormatGdeltTimestamp(IntervalStartCivil(interval));
  };
  out.push_back(",\"from\":\"" + stamp(500) + "\",\"to\":\"" + stamp(1000) +
                "\"");
  out.push_back(",\"min_confidence\":45");
  return out;
}

/// An ordered list of (label, bytes) sections.
using Sections = std::vector<std::pair<std::string, std::string>>;

std::string Serialize(const Sections& sections) {
  std::string out;
  for (const auto& [label, bytes] : sections) {
    out += "### " + label + " (" + std::to_string(bytes.size()) +
           " bytes)\n" + bytes + "\n";
  }
  return out;
}

/// Parses Serialize's format; labels map to their bytes.
std::map<std::string, std::string> Parse(const std::string& doc) {
  std::map<std::string, std::string> out;
  std::size_t at = 0;
  while (at < doc.size()) {
    const std::size_t eol = doc.find('\n', at);
    if (eol == std::string::npos) break;
    const std::string header = doc.substr(at, eol - at);
    const std::size_t open = header.rfind(" (");
    if (header.rfind("### ", 0) != 0 || open == std::string::npos) break;
    const std::size_t n = std::stoul(header.substr(open + 2));
    out[header.substr(4, open - 4)] = doc.substr(eol + 1, n);
    at = eol + 1 + n + 1;
  }
  return out;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class RenderGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("golden");
    auto db = testing::BuildPartialFixture(dir_->path());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::make_unique<engine::Database>(std::move(*db));
  }

  static Request MakeRequest(const std::string& line) {
    auto r = ParseRequest(line);
    EXPECT_TRUE(r.ok()) << line << ": " << r.status().ToString();
    return r.ok() ? *r : Request{};
  }

  /// Compares `actual` with tests/golden/<name> section by section and
  /// writes it to <name>.actual in the working directory.
  static void ExpectGolden(const std::string& name, const Sections& actual) {
    const std::string doc = Serialize(actual);
    std::ofstream(name + ".actual", std::ios::binary) << doc;
    const auto golden = Parse(ReadFile(std::string(GDELT_GOLDEN_DIR) + "/" +
                                       name));
    EXPECT_EQ(golden.size(), actual.size()) << name;
    for (const auto& [label, bytes] : actual) {
      const auto it = golden.find(label);
      if (it == golden.end()) {
        ADD_FAILURE() << name << ": no golden section '" << label << "'";
        continue;
      }
      EXPECT_EQ(bytes, it->second) << name << ": " << label;
    }
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<engine::Database> db_;
};

TEST_F(RenderGoldenTest, SingleNodeTextAndNotes) {
  Sections sections;
  for (const std::string kind : kAllKinds) {
    for (const std::size_t top : {3u, 50u}) {
      for (const std::string& filter : FiltersFor(kind)) {
        const std::string line = "{\"query\":\"" + kind +
                                 "\",\"top\":" + std::to_string(top) +
                                 filter + "}";
        auto rendered = RenderQuery(*db_, MakeRequest(line));
        ASSERT_TRUE(rendered.ok()) << line << ": "
                                   << rendered.status().ToString();
        sections.emplace_back("text " + line, rendered->text);
        sections.emplace_back("note " + line, rendered->note);
      }
    }
  }
  ExpectGolden("render.golden", sections);
}

TEST_F(RenderGoldenTest, PartialFramesOfThreeShards) {
  Sections sections;
  for (const std::string kind : kPartialKinds) {
    for (const std::size_t top : {3u, 50u}) {
      for (const std::string& filter : FiltersFor(kind)) {
        for (std::uint32_t shard = 0; shard < 3; ++shard) {
          const std::string line =
              "{\"query\":\"" + kind + "\",\"top\":" + std::to_string(top) +
              filter + ",\"partial\":true,\"shard\":" +
              std::to_string(shard) + ",\"of\":3}";
          auto frame = RenderPartialFrame(*db_, MakeRequest(line),
                                          parallel::Backend::kMorselPool);
          ASSERT_TRUE(frame.ok()) << line << ": "
                                  << frame.status().ToString();
          sections.emplace_back(line, frame->text);
        }
      }
    }
  }
  ExpectGolden("frames.golden", sections);
}

}  // namespace
}  // namespace gdelt::serve
