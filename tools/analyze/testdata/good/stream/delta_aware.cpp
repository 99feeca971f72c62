// Clean delta-chunk walks the analyzer must NOT flag: one polls the
// token each chunk, one carries a justified allow tag.
#include <cstddef>
#include <memory>
#include <vector>

namespace util {
struct CancelToken;
bool Cancelled(const CancelToken* token);
}  // namespace util

struct Chunk {
  std::vector<unsigned> mention_source;
};

struct Snapshot {
  std::vector<std::shared_ptr<const Chunk>> chunks_;

  std::size_t PolledWalk(const util::CancelToken* cancel) const {
    std::size_t acc = 0;
    for (const auto& chunk : chunks_) {
      if (util::Cancelled(cancel)) break;
      acc += chunk->mention_source.size();
    }
    return acc;
  }

  std::size_t TaggedWalk() const {
    std::size_t acc = 0;
    // gdelt-astcheck: allow(cancel-poll) — startup rebuild that
    // deliberately runs to completion.
    for (const auto& chunk : chunks_) {
      acc += chunk->mention_source.size();
    }
    return acc;
  }
};
