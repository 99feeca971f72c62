// Seeded bounded-alloc violations on copies and resizes sized by parsed
// input under io/: exactly THREE findings, the memcpy included.
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace fixture {

struct Reader {
  std::uint32_t ReadU32();
  const char* cursor;
};

std::vector<char> Load(Reader& in) {
  std::vector<char> out;
  const std::uint32_t len = in.ReadU32();
  out.resize(len);                        // finding: unchecked resize
  std::memcpy(out.data(), in.cursor, len);  // finding: unchecked memcpy
  return out;
}

std::string LoadName(Reader& in) {
  std::string name;
  const std::uint32_t count = in.ReadU32();
  if (in.cursor == nullptr) return name;  // guards something else entirely
  name.resize(count);                     // finding: count is never checked
  return name;
}

}  // namespace fixture
