#include "serve/json.hpp"

#include <cstdio>
#include <cstdlib>

namespace gdelt::serve {
namespace {

constexpr int kMaxDepth = 16;

}  // namespace

/// Recursive-descent parser over a string_view cursor.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : at_(text) {}

  Result<JsonValue> ParseDocument() {
    SkipWhitespace();
    JsonValue root;
    GDELT_RETURN_IF_ERROR(ParseValue(root, 0));
    SkipWhitespace();
    if (!at_.empty()) {
      return status::ParseError("trailing characters after JSON value");
    }
    return root;
  }

 private:
  void SkipWhitespace() {
    std::size_t i = 0;
    while (i < at_.size() && (at_[i] == ' ' || at_[i] == '\t' ||
                              at_[i] == '\n' || at_[i] == '\r')) {
      ++i;
    }
    at_.remove_prefix(i);
  }

  bool Consume(char c) {
    if (at_.empty() || at_.front() != c) return false;
    at_.remove_prefix(1);
    return true;
  }

  bool ConsumeLiteral(std::string_view lit) {
    if (at_.substr(0, lit.size()) != lit) return false;
    at_.remove_prefix(lit.size());
    return true;
  }

  Status ParseValue(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return status::ParseError("JSON nested too deep");
    SkipWhitespace();
    if (at_.empty()) return status::ParseError("unexpected end of JSON");
    const char c = at_.front();
    if (c == '{') return ParseObject(out, depth);
    if (c == '[') return ParseArray(out, depth);
    if (c == '"') {
      out.kind_ = JsonValue::Kind::kString;
      return ParseString(out.string_);
    }
    if (ConsumeLiteral("true")) {
      out.kind_ = JsonValue::Kind::kBool;
      out.bool_ = true;
      return Status::Ok();
    }
    if (ConsumeLiteral("false")) {
      out.kind_ = JsonValue::Kind::kBool;
      out.bool_ = false;
      return Status::Ok();
    }
    if (ConsumeLiteral("null")) {
      out.kind_ = JsonValue::Kind::kNull;
      return Status::Ok();
    }
    return ParseNumber(out);
  }

  Status ParseObject(JsonValue& out, int depth) {
    Consume('{');
    out.kind_ = JsonValue::Kind::kObject;
    SkipWhitespace();
    if (Consume('}')) return Status::Ok();
    while (true) {
      SkipWhitespace();
      std::string key;
      if (at_.empty() || at_.front() != '"') {
        return status::ParseError("expected object key string");
      }
      GDELT_RETURN_IF_ERROR(ParseString(key));
      SkipWhitespace();
      if (!Consume(':')) return status::ParseError("expected ':' in object");
      JsonValue value;
      GDELT_RETURN_IF_ERROR(ParseValue(value, depth + 1));
      out.members_.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::Ok();
      return status::ParseError("expected ',' or '}' in object");
    }
  }

  Status ParseArray(JsonValue& out, int depth) {
    Consume('[');
    out.kind_ = JsonValue::Kind::kArray;
    SkipWhitespace();
    if (Consume(']')) return Status::Ok();
    while (true) {
      JsonValue value;
      GDELT_RETURN_IF_ERROR(ParseValue(value, depth + 1));
      out.elements_.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::Ok();
      return status::ParseError("expected ',' or ']' in array");
    }
  }

  Status ParseString(std::string& out) {
    Consume('"');
    out.clear();
    while (true) {
      if (at_.empty()) return status::ParseError("unterminated string");
      const char c = at_.front();
      at_.remove_prefix(1);
      if (c == '"') return Status::Ok();
      if (static_cast<unsigned char>(c) < 0x20) {
        return status::ParseError("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (at_.empty()) return status::ParseError("dangling escape");
      const char e = at_.front();
      at_.remove_prefix(1);
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (at_.size() < 4) return status::ParseError("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = at_[static_cast<std::size_t>(i)];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return status::ParseError("bad \\u escape");
            }
          }
          at_.remove_prefix(4);
          // Encode the code point as UTF-8 (surrogate pairs unsupported;
          // the protocol never emits them).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return status::ParseError("unknown escape character");
      }
    }
  }

  Status ParseNumber(JsonValue& out) {
    std::size_t len = 0;
    while (len < at_.size()) {
      const char c = at_[len];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
          c == 'e' || c == 'E') {
        ++len;
      } else {
        break;
      }
    }
    if (len == 0) return status::ParseError("unexpected character in JSON");
    const std::string text(at_.substr(0, len));
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size()) {
      return status::ParseError("malformed number '" + text + "'");
    }
    at_.remove_prefix(len);
    out.kind_ = JsonValue::Kind::kNumber;
    out.number_ = value;
    return Status::Ok();
  }

  std::string_view at_;
};

Result<JsonValue> JsonValue::Parse(std::string_view text) {
  return JsonParser(text).ParseDocument();
}

const JsonValue* JsonValue::Find(std::string_view key) const noexcept {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

JsonValue JsonValue::Take(std::string_view key) noexcept {
  for (auto& [k, v] : members_) {
    if (k == key) return std::exchange(v, JsonValue());
  }
  return JsonValue();
}

void AppendJsonString(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

}  // namespace gdelt::serve
