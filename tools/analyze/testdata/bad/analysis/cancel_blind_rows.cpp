// Seeded cancel-poll violations: exactly TWO full row-range scans that
// can never observe cancellation.
#include <cstddef>

struct Db {
  std::size_t num_events() const;
  std::size_t num_mentions() const;
};

std::size_t ScanEvents(const Db& db) {
  std::size_t acc = 0;
  for (std::size_t e = 0; e < db.num_events(); ++e) {
    acc += e;
  }
  return acc;
}

std::size_t ScanMentions(const Db& db) {
  std::size_t acc = 0;
  // A comment that is not the allow tag does not excuse the loop.
  for (std::size_t m = 0; m < db.num_mentions(); ++m) {
    acc += m;
  }
  return acc;
}
