// Small string utilities shared across the CSV parser, master-list handling
// and report formatting. All functions are allocation-conscious: anything on
// a parse hot path works on string_view.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace gdelt {

/// Removes ASCII whitespace from both ends.
std::string_view TrimView(std::string_view s) noexcept;

/// Lower-cases ASCII characters (locale-independent).
std::string ToLowerAscii(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix) noexcept;
bool EndsWith(std::string_view s, std::string_view suffix) noexcept;

/// Splits on a single-character delimiter. Keeps empty fields (GDELT rows
/// contain many empty tab-separated columns).
std::vector<std::string_view> SplitView(std::string_view s, char delim);

/// Splits into an existing buffer to avoid per-row allocation; returns the
/// number of fields written (the vector is resized to it).
void SplitInto(std::string_view s, char delim,
               std::vector<std::string_view>& out);

/// Joins parts with a separator.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Strict decimal integer parse over the whole view; rejects empty input,
/// trailing junk, and overflow. GDELT numeric fields may be empty, which the
/// callers treat as "missing" before calling this.
std::optional<std::int64_t> ParseInt64(std::string_view s) noexcept;
std::optional<std::uint64_t> ParseUint64(std::string_view s) noexcept;

/// Strict floating-point parse over the whole view.
std::optional<double> ParseDouble(std::string_view s) noexcept;

/// Extracts the registrable top-level domain label from a host or URL, e.g.
/// "https://www.example.co.uk/a/b" -> "uk". Returns empty view on failure.
/// Country attribution in the paper (Section VI-C) is done this way.
std::string_view TopLevelDomain(std::string_view url_or_host) noexcept;

/// Extracts the host part from a URL ("http://a.b.c/d" -> "a.b.c").
std::string_view HostOfUrl(std::string_view url) noexcept;

/// printf-style formatting appended to `out`.
void Appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Formats n with thousands separators: 1234567 -> "1,234,567".
std::string WithThousands(std::uint64_t n);

}  // namespace gdelt
