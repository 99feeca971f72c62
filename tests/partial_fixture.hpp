// The small hand-built database the partial-aggregate tests share
// (partial_merge_test, render_golden_test): enough events, countries and
// sources that every query kind has real structure to split.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/database.hpp"
#include "test_util.hpp"
#include "util/status.hpp"

namespace gdelt::testing {

/// 14 events over three countries (every fourth one unlocated), each
/// mentioned by a sliding window of three of six sources, so co-reporting
/// pairs span partition boundaries; every other event gets a later repeat
/// mention (first-reports repeat-rate fodder). Capture intervals run from
/// about 100 to 1440; confidences are 30, 40, 50 and 90.
inline Result<engine::Database> BuildPartialFixture(const std::string& dir) {
  TestDbBuilder builder;
  std::vector<std::uint64_t> events;
  for (int i = 0; i < 14; ++i) {
    const CountryId country =
        i % 4 == 3 ? kNoCountry : static_cast<CountryId>(1 + i % 3);
    events.push_back(builder.AddEvent(100 * (i + 1), country));
  }
  const char* sources[] = {"a.com", "b.com", "c.com",
                           "d.com", "e.com", "f.com"};
  int tick = 0;
  for (std::size_t e = 0; e < events.size(); ++e) {
    for (std::size_t s = 0; s < 3; ++s) {
      const char* source = sources[(e + s) % 6];
      const auto when =
          static_cast<std::int64_t>(100 * (e + 1) + 1 + s + (tick++ % 5));
      const auto confidence = static_cast<std::uint8_t>(30 + 10 * s);
      builder.AddMention(events[e], when, source, confidence);
    }
    if (e % 2 == 0) {
      builder.AddMention(events[e],
                         static_cast<std::int64_t>(100 * (e + 1) + 40),
                         sources[e % 6], 90);
    }
  }
  return builder.Build(dir);
}

}  // namespace gdelt::testing
