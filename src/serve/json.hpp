// Minimal JSON parsing/escaping for the serve wire protocol.
//
// The protocol (docs/PROTOCOL.md) is one flat JSON object per line, so
// this intentionally implements just enough of RFC 8259 for that: objects,
// arrays, strings with escapes, numbers, booleans and null, with a depth
// limit. No external dependency; malformed input comes back as a
// ParseError Status instead of throwing.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.hpp"

namespace gdelt::serve {

/// A parsed JSON value (tree). Object member order is preserved.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };

  /// Parses a complete JSON document; trailing non-whitespace is an error.
  static Result<JsonValue> Parse(std::string_view text);

  Kind kind() const noexcept { return kind_; }
  bool is_object() const noexcept { return kind_ == Kind::kObject; }
  bool is_string() const noexcept { return kind_ == Kind::kString; }
  bool is_number() const noexcept { return kind_ == Kind::kNumber; }
  bool is_bool() const noexcept { return kind_ == Kind::kBool; }

  bool AsBool(bool fallback = false) const noexcept {
    return kind_ == Kind::kBool ? bool_ : fallback;
  }
  double AsNumber(double fallback = 0.0) const noexcept {
    return kind_ == Kind::kNumber ? number_ : fallback;
  }
  std::int64_t AsInt(std::int64_t fallback = 0) const noexcept {
    return kind_ == Kind::kNumber ? static_cast<std::int64_t>(number_)
                                  : fallback;
  }
  /// Empty string unless this is a string value.
  const std::string& AsString() const noexcept { return string_; }

  /// Object member by key; nullptr if absent or not an object.
  const JsonValue* Find(std::string_view key) const noexcept;
  /// Moves object member `key` out, leaving null in its place; null if
  /// absent or not an object.
  JsonValue Take(std::string_view key) noexcept;

  const std::vector<std::pair<std::string, JsonValue>>& members()
      const noexcept {
    return members_;
  }
  const std::vector<JsonValue>& elements() const noexcept {
    return elements_;
  }

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<std::pair<std::string, JsonValue>> members_;
  std::vector<JsonValue> elements_;
};

/// Appends `s` as a quoted, escaped JSON string literal.
void AppendJsonString(std::string& out, std::string_view s);

}  // namespace gdelt::serve
