// Lightweight status / result types used across the GDELT mining system.
//
// The engine is exception-free on hot paths: recoverable errors travel as
// `Status` / `Result<T>` values so that parallel regions and I/O loops can
// propagate failures without unwinding across morsel-pool workers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace gdelt {

/// Error category for a failed operation.
enum class StatusCode : std::uint8_t {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kFailedPrecondition,
  kDataLoss,     ///< corrupt file, bad checksum, truncated input
  kIoError,      ///< OS-level I/O failure
  kParseError,   ///< malformed CSV / master-list entry
  kUnimplemented,
  kInternal,
  kCancelled,    ///< cooperatively cancelled (deadline, disconnect, router)
};

/// Human-readable name of a status code ("Ok", "ParseError", ...).
std::string_view StatusCodeName(StatusCode code) noexcept;

/// A success-or-error value. Cheap to copy on success (no allocation).
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() noexcept = default;

  /// Constructs an error status with a message. `code` must not be kOk.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() noexcept { return Status(); }

  bool ok() const noexcept { return code_ == StatusCode::kOk; }
  StatusCode code() const noexcept { return code_; }
  const std::string& message() const noexcept { return message_; }

  /// "Ok" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// A value or an error. Modeled after absl::StatusOr.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit from value: `return 42;`
  Result(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  /// Implicit from error status: `return Status(...);`. Must not be OK.
  Result(Status status) : status_(std::move(status)) {}  // NOLINT(google-explicit-constructor)

  bool ok() const noexcept { return value_.has_value(); }
  const Status& status() const noexcept { return status_; }

  T& value() & { return *value_; }
  const T& value() const& { return *value_; }
  T&& value() && { return *std::move(value_); }

  T& operator*() & { return *value_; }
  const T& operator*() const& { return *value_; }
  T* operator->() { return &*value_; }
  const T* operator->() const { return &*value_; }

  /// Returns the value, or `fallback` on error.
  T value_or(T fallback) const& {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  std::optional<T> value_;
  Status status_;
};

namespace status {
inline Status InvalidArgument(std::string msg) {
  return {StatusCode::kInvalidArgument, std::move(msg)};
}
inline Status NotFound(std::string msg) {
  return {StatusCode::kNotFound, std::move(msg)};
}
inline Status AlreadyExists(std::string msg) {
  return {StatusCode::kAlreadyExists, std::move(msg)};
}
inline Status OutOfRange(std::string msg) {
  return {StatusCode::kOutOfRange, std::move(msg)};
}
inline Status FailedPrecondition(std::string msg) {
  return {StatusCode::kFailedPrecondition, std::move(msg)};
}
inline Status DataLoss(std::string msg) {
  return {StatusCode::kDataLoss, std::move(msg)};
}
inline Status IoError(std::string msg) {
  return {StatusCode::kIoError, std::move(msg)};
}
inline Status ParseError(std::string msg) {
  return {StatusCode::kParseError, std::move(msg)};
}
inline Status Unimplemented(std::string msg) {
  return {StatusCode::kUnimplemented, std::move(msg)};
}
inline Status Internal(std::string msg) {
  return {StatusCode::kInternal, std::move(msg)};
}
inline Status Cancelled(std::string msg) {
  return {StatusCode::kCancelled, std::move(msg)};
}
}  // namespace status

/// Propagates an error status from an expression that yields a Status.
#define GDELT_RETURN_IF_ERROR(expr)                  \
  do {                                               \
    ::gdelt::Status gdelt_status_ = (expr);          \
    if (!gdelt_status_.ok()) return gdelt_status_;   \
  } while (false)

/// Declares `lhs` from a Result-yielding expression, propagating errors.
#define GDELT_ASSIGN_OR_RETURN(lhs, expr)            \
  GDELT_ASSIGN_OR_RETURN_IMPL_(                      \
      GDELT_STATUS_CONCAT_(result_, __LINE__), lhs, expr)
#define GDELT_STATUS_CONCAT_INNER_(a, b) a##b
#define GDELT_STATUS_CONCAT_(a, b) GDELT_STATUS_CONCAT_INNER_(a, b)
#define GDELT_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                 \
  if (!tmp.ok()) return tmp.status();                \
  lhs = std::move(tmp).value()

}  // namespace gdelt
