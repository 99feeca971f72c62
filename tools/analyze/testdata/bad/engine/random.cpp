// Seeded raw-random violations outside src/gen: exactly TWO findings.
#include <cstdlib>
#include <random>

namespace fixture {

int Roll() {
  std::random_device entropy;  // finding: raw entropy source
  (void)entropy;
  return rand() % 6;  // finding: rand()
}

}  // namespace fixture
