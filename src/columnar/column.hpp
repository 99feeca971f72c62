// Typed in-memory columns for the binary column store.
//
// The paper's key design decision (Section IV) is converting GDELT's text
// tables once into "machine-readable binary format" so queries scan flat
// arrays instead of re-parsing CSV. A Column is a contiguous typed buffer;
// string columns are offset+blob pairs. Buffers are plain vectors so a
// parallel first-touch pass can place their pages across NUMA nodes.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.hpp"

namespace gdelt {

/// Physical type of a column.
enum class ColumnType : std::uint8_t {
  kU8 = 0,
  kU16 = 1,
  kU32 = 2,
  kU64 = 3,
  kI64 = 4,
  kF64 = 5,
  kStr = 6,
};

/// Size in bytes of one element of a fixed-width type (0 for kStr).
constexpr std::size_t ColumnTypeSize(ColumnType t) noexcept {
  switch (t) {
    case ColumnType::kU8: return 1;
    case ColumnType::kU16: return 2;
    case ColumnType::kU32: return 4;
    case ColumnType::kU64: return 8;
    case ColumnType::kI64: return 8;
    case ColumnType::kF64: return 8;
    case ColumnType::kStr: return 0;
  }
  return 0;
}

std::string_view ColumnTypeName(ColumnType t) noexcept;

namespace column_detail {
template <typename T>
struct TypeTag;
template <> struct TypeTag<std::uint8_t> {
  static constexpr ColumnType value = ColumnType::kU8;
};
template <> struct TypeTag<std::uint16_t> {
  static constexpr ColumnType value = ColumnType::kU16;
};
template <> struct TypeTag<std::uint32_t> {
  static constexpr ColumnType value = ColumnType::kU32;
};
template <> struct TypeTag<std::uint64_t> {
  static constexpr ColumnType value = ColumnType::kU64;
};
template <> struct TypeTag<std::int64_t> {
  static constexpr ColumnType value = ColumnType::kI64;
};
template <> struct TypeTag<double> {
  static constexpr ColumnType value = ColumnType::kF64;
};
}  // namespace column_detail

/// One column of a table. Fixed-width data lives in `bytes_`; strings in
/// `offsets_` (size rows+1) plus `chars_`.
class Column {
 public:
  /// Creates an empty column of the given type.
  explicit Column(ColumnType type = ColumnType::kU64) : type_(type) {
    if (type_ == ColumnType::kStr) offsets_.push_back(0);
  }

  ColumnType type() const noexcept { return type_; }

  /// Row count.
  std::size_t size() const noexcept {
    if (type_ == ColumnType::kStr) return offsets_.size() - 1;
    const std::size_t es = ColumnTypeSize(type_);
    return es ? bytes_.size() / es : 0;
  }

  /// Appends a fixed-width value; T must match the column type exactly.
  template <typename T>
  void Append(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (column_detail::TypeTag<T>::value != type_) {
      // Type confusion is a programming error, not a data error.
      std::abort();
    }
    const std::size_t at = bytes_.size();
    bytes_.resize(at + sizeof(T));
    std::memcpy(bytes_.data() + at, &value, sizeof(T));
  }

  /// Appends to a string column.
  void AppendString(std::string_view s) {
    chars_.append(s);
    offsets_.push_back(chars_.size());
  }

  /// Typed read-only view of a fixed-width column.
  template <typename T>
  std::span<const T> Values() const {
    static_assert(std::is_trivially_copyable_v<T>);
    if (column_detail::TypeTag<T>::value != type_) std::abort();
    return {reinterpret_cast<const T*>(bytes_.data()),
            bytes_.size() / sizeof(T)};
  }

  /// Typed mutable view (used by in-place builders).
  template <typename T>
  std::span<T> MutableValues() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (column_detail::TypeTag<T>::value != type_) std::abort();
    return {reinterpret_cast<T*>(bytes_.data()), bytes_.size() / sizeof(T)};
  }

  /// String at row i (valid while the column lives).
  std::string_view StringAt(std::size_t i) const noexcept {
    const std::uint64_t b = offsets_[i];
    const std::uint64_t e = offsets_[i + 1];
    // gdelt-astcheck: allow(view-escape) — columns are immutable once
    // loaded (AppendString only runs during conversion, never on a
    // column a reader holds), so chars_ never reallocates under a view.
    return {chars_.data() + b, static_cast<std::size_t>(e - b)};
  }

  /// Pre-allocates for n fixed-width rows (or n strings of avg_len bytes).
  void Reserve(std::size_t n, std::size_t avg_len = 16) {
    if (type_ == ColumnType::kStr) {
      // gdelt-astcheck: allow(bounded-alloc) — n is an in-memory
      // dictionary size from the caller, never a length parsed out of a file.
      offsets_.reserve(n + 1);
      chars_.reserve(n * avg_len);
    } else {
      // gdelt-astcheck: allow(bounded-alloc) — n is a capacity hint from
      // the caller, not untrusted input.
      bytes_.reserve(n * ColumnTypeSize(type_));
    }
  }

  /// Resizes a fixed-width column to n zero-initialized rows.
  void ResizeFixed(std::size_t n) {
    // gdelt-astcheck: allow(bounded-alloc) — n is a row count the loader
    // already validated against the file's framing (BinaryReader bounds
    // every section length before a column is sized from it).
    bytes_.assign(n * ColumnTypeSize(type_), 0);
  }

  /// Total heap bytes held (for the memory accounting the paper reports).
  std::size_t MemoryBytes() const noexcept {
    return bytes_.capacity() + offsets_.capacity() * sizeof(std::uint64_t) +
           chars_.capacity();
  }

  // --- serialization (raw buffers; framing is done by Table) ---
  const std::vector<std::uint8_t>& raw_bytes() const noexcept { return bytes_; }
  const std::vector<std::uint64_t>& raw_offsets() const noexcept {
    return offsets_;
  }
  const std::string& raw_chars() const noexcept { return chars_; }
  std::vector<std::uint8_t>& mutable_raw_bytes() noexcept { return bytes_; }
  std::vector<std::uint64_t>& mutable_raw_offsets() noexcept {
    return offsets_;
  }
  std::string& mutable_raw_chars() noexcept { return chars_; }

 private:
  ColumnType type_;
  std::vector<std::uint8_t> bytes_;     ///< fixed-width payload
  std::vector<std::uint64_t> offsets_;  ///< kStr: rows+1 boundaries
  std::string chars_;                   ///< kStr: concatenated bytes
};

}  // namespace gdelt
