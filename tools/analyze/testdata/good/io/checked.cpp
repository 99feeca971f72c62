// Clean untrusted-length copies the analyzer must NOT flag: a dominating
// bounds check, a sizeof()-derived length, and a justified allow tag.
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace fixture {

struct Reader {
  std::uint32_t ReadU32();
  std::size_t remaining() const;
  const char* cursor;
};

bool Load(Reader& in, std::vector<char>& out) {
  const std::uint32_t len = in.ReadU32();
  if (len > in.remaining()) return false;
  out.resize(len);
  std::memcpy(out.data(), in.cursor, len);
  return true;
}

void FixedHeader(Reader& in, std::uint64_t& header) {
  std::memcpy(&header, in.cursor, sizeof(header));
}

bool Capped(Reader& in, std::vector<char>& out) {
  const std::uint32_t len = in.ReadU32();
  if (len > 4096) return false;  // the check names the size it bounds
  out.resize(len);
  return true;
}

void TrustedScratch(std::vector<std::uint64_t>& scratch,
                    std::size_t num_keys) {
  // gdelt-astcheck: allow(bounded-alloc) — num_keys is an in-memory
  // dictionary size, not parsed input.
  scratch.resize(num_keys + 1);
}

}  // namespace fixture
