// Seeded cancel-poll violation: exactly ONE full delta-chunk walk that
// can never observe cancellation.
#include <cstddef>
#include <memory>
#include <vector>

struct Chunk {
  std::vector<unsigned> mention_source;
};

struct Snapshot {
  std::vector<std::shared_ptr<const Chunk>> chunks_;

  std::size_t BlindWalk() const {
    std::size_t acc = 0;
    for (const auto& chunk : chunks_) {
      acc += chunk->mention_source.size();
    }
    return acc;
  }
};
