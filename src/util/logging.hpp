// Minimal leveled logging to stderr. Thread-safe line-at-a-time output so
// pool workers can log without interleaving.
#pragma once

#include <string>

namespace gdelt {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Sets the minimum level that is emitted (default: kInfo).
void SetLogLevel(LogLevel level) noexcept;
LogLevel GetLogLevel() noexcept;

/// Emits one log line "[LEVEL] message\n" if `level` passes the filter.
void LogMessage(LogLevel level, const std::string& message);

namespace log_detail {
bool Enabled(LogLevel level) noexcept;
}

#define GDELT_LOG(level, msg)                                     \
  do {                                                            \
    if (::gdelt::log_detail::Enabled(::gdelt::LogLevel::level)) { \
      ::gdelt::LogMessage(::gdelt::LogLevel::level, (msg));       \
    }                                                             \
  } while (false)

}  // namespace gdelt
