#include "util/strings.hpp"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>

namespace gdelt {

std::string_view TrimView(std::string_view s) noexcept {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string ToLowerAscii(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) noexcept {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) noexcept {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::vector<std::string_view> SplitView(std::string_view s, char delim) {
  std::vector<std::string_view> out;
  SplitInto(s, delim, out);
  return out;
}

void SplitInto(std::string_view s, char delim,
               std::vector<std::string_view>& out) {
  out.clear();
  std::size_t start = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == delim) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  out.push_back(s.substr(start));
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::optional<std::int64_t> ParseInt64(std::string_view s) noexcept {
  if (s.empty()) return std::nullopt;
  std::int64_t value = 0;
  const auto* first = s.data();
  const auto* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || ptr != last) return std::nullopt;
  return value;
}

std::optional<std::uint64_t> ParseUint64(std::string_view s) noexcept {
  if (s.empty()) return std::nullopt;
  std::uint64_t value = 0;
  const auto* first = s.data();
  const auto* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || ptr != last) return std::nullopt;
  return value;
}

std::optional<double> ParseDouble(std::string_view s) noexcept {
  if (s.empty()) return std::nullopt;
  double value = 0.0;
  const auto* first = s.data();
  const auto* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || ptr != last) return std::nullopt;
  return value;
}

std::string_view HostOfUrl(std::string_view url) noexcept {
  const auto scheme = url.find("://");
  std::string_view rest =
      scheme == std::string_view::npos ? url : url.substr(scheme + 3);
  const auto slash = rest.find('/');
  std::string_view host =
      slash == std::string_view::npos ? rest : rest.substr(0, slash);
  const auto colon = host.find(':');
  if (colon != std::string_view::npos) host = host.substr(0, colon);
  return host;
}

std::string_view TopLevelDomain(std::string_view url_or_host) noexcept {
  const std::string_view host = HostOfUrl(url_or_host);
  if (host.empty()) return {};
  const auto dot = host.rfind('.');
  if (dot == std::string_view::npos || dot + 1 >= host.size()) return {};
  std::string_view tld = host.substr(dot + 1);
  // Reject ports / raw IPv4 tails.
  for (char c : tld) {
    if (c >= '0' && c <= '9') return {};
  }
  return tld;
}

namespace {

/// Formats into a stack buffer; a longer result is formatted again in
/// place at the end of `out`.
void VAppendf(std::string& out, const char* fmt, va_list args) {
  char stack_buf[512];
  va_list copy;
  va_copy(copy, args);
  const int needed = std::vsnprintf(stack_buf, sizeof(stack_buf), fmt, args);
  if (needed >= 0 && static_cast<std::size_t>(needed) < sizeof(stack_buf)) {
    out.append(stack_buf, static_cast<std::size_t>(needed));
  } else if (needed >= 0) {
    const std::size_t at = out.size();
    out.resize(at + static_cast<std::size_t>(needed) + 1);
    std::vsnprintf(out.data() + at, static_cast<std::size_t>(needed) + 1, fmt,
                   copy);
    out.resize(at + static_cast<std::size_t>(needed));
  }
  va_end(copy);
}

}  // namespace

void Appendf(std::string& out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  VAppendf(out, fmt, args);
  va_end(args);
}

std::string StrFormat(const char* fmt, ...) {
  std::string out;
  va_list args;
  va_start(args, fmt);
  VAppendf(out, fmt, args);
  va_end(args);
  return out;
}

std::string WithThousands(std::uint64_t n) {
  std::string digits = std::to_string(n);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (digits.size() - i) % 3 == 0) out += ',';
    out += digits[i];
  }
  return out;
}

}  // namespace gdelt
