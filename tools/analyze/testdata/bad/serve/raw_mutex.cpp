// Seeded raw-mutex violations: THREE findings, on lines 8, 9 and 12
// (one per line, however many primitives the line names).
#include <condition_variable>
#include <mutex>

namespace fixture {

std::mutex g_mu;                 // finding: raw std::mutex
std::condition_variable g_cv;    // finding: raw std::condition_variable

int Locked() {
  std::lock_guard<std::mutex> lock(g_mu);  // finding: raw std::lock_guard
  return 1;
}

}  // namespace fixture
