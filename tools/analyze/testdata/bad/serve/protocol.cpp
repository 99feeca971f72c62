// Seeded bounded-alloc violation in a request parser: the rule's scope
// covers serve/protocol.cpp and serve/json.cpp as well as partial.cpp.
// gdelt_astcheck_test.py expects exactly ONE finding from this file.
// Never compiled; analyzer fixture only.

#include <cstdint>
#include <string>

struct JsonValue {
  std::int64_t AsInt() const;
};

// A request member sizes a buffer with no bound: `{"top":1e18}` would be
// an allocation on demand.
void TakeTop(const JsonValue& v, std::string& out) {
  const std::int64_t n = v.AsInt();
  out.reserve(n);
}
