#include "analysis/stats.hpp"

#include "util/strings.hpp"

namespace gdelt::analysis {

std::string DatasetStatistics::ToText() const {
  std::string out;
  out += "General dataset statistics (cf. paper Table I)\n";
  out += StrFormat("  Sources                               %s\n",
                   WithThousands(sources).c_str());
  out += StrFormat("  Events                                %s\n",
                   WithThousands(events).c_str());
  out += StrFormat("  Capture intervals                     %s\n",
                   WithThousands(capture_intervals).c_str());
  out += StrFormat("  Articles                              %s\n",
                   WithThousands(articles).c_str());
  out += StrFormat("  Min articles per event                %s\n",
                   WithThousands(min_articles_per_event).c_str());
  out += StrFormat("  Max articles per event                %s\n",
                   WithThousands(max_articles_per_event).c_str());
  out += StrFormat("  Articles per event (weighted average) %.2f\n",
                   weighted_avg_articles_per_event);
  return out;
}

std::uint64_t CaptureIntervals(const engine::Database& db) {
  return db.num_mentions() == 0
             ? 0
             : static_cast<std::uint64_t>(db.last_interval() -
                                          db.first_interval() + 1);
}

DatasetStatistics ComputeDatasetStatistics(DatasetStatistics counts,
                                           const EventSizes& sizes) {
  if (!sizes.empty()) {
    counts.min_articles_per_event = sizes.begin()->first;
    counts.max_articles_per_event = sizes.rbegin()->first;
  }
  counts.weighted_avg_articles_per_event =
      counts.events == 0 ? 0.0
                         : static_cast<double>(counts.articles) /
                               static_cast<double>(counts.events);
  return counts;
}

DatasetStatistics ComputeDatasetStatistics(const engine::Database& db) {
  return ComputeDatasetStatistics(
      {db.num_sources(), db.num_events(), CaptureIntervals(db),
       db.num_mentions()},
      EventSizeDistribution(db));
}

}  // namespace gdelt::analysis
