#include "parallel/numa.hpp"

#include <atomic>

#include "parallel/morsel.hpp"

namespace gdelt {

void WarmPagesParallel(const void* data, std::size_t bytes) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  constexpr std::size_t kPage = 4096;
  const std::size_t pages = (bytes + kPage - 1) / kPage;
  // The xor into an atomic keeps the reads observable so they are not
  // elided.
  std::atomic<unsigned char> sink{0};
  parallel::PoolParallelFor(pages, [&](IndexRange r, std::size_t) {
    unsigned char local = 0;
    for (std::size_t i = r.begin; i < r.end; ++i) local ^= p[i * kPage];
    sink.fetch_xor(local, std::memory_order_relaxed);
  });
}

}  // namespace gdelt
