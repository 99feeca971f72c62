// Event-size distribution and power-law fitting (paper Fig 2).
#pragma once

#include <cstdint>
#include <map>

#include "engine/database.hpp"
#include "util/cancel.hpp"

namespace gdelt::analysis {

/// Events per event size (articles per event), in ascending size; sizes
/// no event has are absent.
using EventSizes = std::map<std::uint64_t, std::uint64_t>;

/// The event sizes of `events`. Polls `cancel` per morsel.
EventSizes EventSizeDistribution(const engine::Database& db,
                                 IndexRange events = kWholeRange,
                                 const util::CancelToken* cancel = nullptr);

/// Continuous-MLE power-law exponent over the events of size >= xmin:
///   alpha = 1 + n / sum(count * ln(x / xmin)), summed in ascending size.
/// Returns 0 when fewer than 2 events qualify.
double PowerLawAlpha(const EventSizes& sizes, std::uint64_t xmin);

/// Fits alpha of the event-size distribution (xmin = 1 by default).
double EventSizePowerLawAlpha(const engine::Database& db,
                              std::uint64_t xmin = 1);

}  // namespace gdelt::analysis
