// Clean row-range loops the analyzer must NOT flag: they poll the
// token, carry a justified allow tag, or iterate a morsel's sub-range
// instead of the full table.
#include <cstddef>

namespace util {
struct CancelToken;
bool Cancelled(const CancelToken* token);
}  // namespace util

struct Db {
  std::size_t num_events() const;
};

std::size_t PolledScan(const Db& db, const util::CancelToken* cancel) {
  std::size_t acc = 0;
  for (std::size_t e = 0; e < db.num_events(); ++e) {
    if ((e & 255) == 0 && util::Cancelled(cancel)) break;
    acc += e;
  }
  return acc;
}

std::size_t PolledScanMultilineHeader(const Db& db,
                                      const util::CancelToken* cancel) {
  std::size_t acc = 0;
  for (std::size_t e = 0;
       e < db.num_events();
       ++e) {
    if ((e & 255) == 0 && util::Cancelled(cancel)) break;
    acc += e;
  }
  return acc;
}

std::size_t TaggedBaseline(const Db& db) {
  std::size_t acc = 0;
  // gdelt-astcheck: allow(cancel-poll) — ablation holdout that
  // deliberately runs the scan to completion.
  for (std::size_t e = 0; e < db.num_events(); ++e) {
    acc += e;
  }
  return acc;
}

std::size_t MorselBody(std::size_t events_begin, std::size_t end) {
  // The pool polls the token between morsels; a loop over the morsel's
  // own rows (not `events_end`, not the full table) is outside the rule.
  std::size_t acc = 0;
  for (std::size_t e = events_begin; e < end; ++e) {
    acc += e;
  }
  return acc;
}
