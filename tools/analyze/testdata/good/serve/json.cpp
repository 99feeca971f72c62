// Clean request-parser allocation the analyzer must NOT flag: the parsed
// size is bounded by an early-exit guard before it reaches reserve().
// Never compiled; analyzer fixture only.

#include <cstdint>
#include <string>

inline constexpr std::int64_t kMaxDepth = 64;

struct JsonValue {
  std::int64_t AsInt() const;
};

void TakeDepth(const JsonValue& v, std::string& out) {
  const std::int64_t depth = v.AsInt();
  if (depth < 0 || depth > kMaxDepth) {
    return;
  }
  out.reserve(depth);
}
