// Typed columns for the binary column store.
//
// The paper's key design decision (Section IV) is converting GDELT's text
// tables once into "machine-readable binary format" so queries scan flat
// arrays instead of re-parsing CSV. A Column is a contiguous typed array;
// string columns are offset+blob pairs. A loaded column is a view into
// the table file's read-only mapping, so every process serving the same
// file shares one page-cache copy of it.
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
  kI32 = 7,
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
    case ColumnType::kI32: return 4;
  }
  return 0;
}

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
template <> struct TypeTag<std::int32_t> {
  static constexpr ColumnType value = ColumnType::kI32;
};
template <> struct TypeTag<std::int64_t> {
  static constexpr ColumnType value = ColumnType::kI64;
};
template <> struct TypeTag<double> {
  static constexpr ColumnType value = ColumnType::kF64;
};
}  // namespace column_detail

/// One column of a table. Every read goes through three views: the
/// fixed-width payload, and for kStr the rows+1 offsets and the chars.
/// A loaded column's views point into its table's read-only file mapping
/// (Table::ReadFromFile keeps it alive); a column built in memory (the
/// converter, tests) owns vectors and re-points the views after each
/// append. Moving a column keeps its views valid (vector moves keep their
/// buffers); columns are not copyable.
class Column {
 public:
  /// Creates an empty in-memory column of the given type.
  explicit Column(ColumnType type = ColumnType::kU64) : type_(type) {
    if (type_ == ColumnType::kStr) owned_offsets_.push_back(0);
    BindOwned();
  }

  /// A read-only column over mapped segments the caller has validated:
  /// `bytes` for a fixed-width type, else `offsets` (rows+1, monotone,
  /// ending at chars.size()) and `chars`. The memory must outlive the
  /// column.
  static Column Mapped(ColumnType type, std::span<const std::uint8_t> bytes,
                       std::span<const std::uint64_t> offsets,
                       std::string_view chars) {
    Column col(type);
    col.owned_offsets_ = {};
    col.bytes_ = bytes;
    col.offsets_ = offsets;
    col.chars_ = chars;
    return col;
  }

  Column(Column&&) noexcept = default;
  Column& operator=(Column&&) noexcept = default;
  Column(const Column&) = delete;
  Column& operator=(const Column&) = delete;

  ColumnType type() const noexcept { return type_; }

  /// Row count.
  std::size_t size() const noexcept {
    if (type_ == ColumnType::kStr) return offsets_.size() - 1;
    return bytes_.size() / ColumnTypeSize(type_);
  }

  /// Appends a fixed-width value; T must match the column type exactly.
  template <typename T>
  void Append(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (column_detail::TypeTag<T>::value != type_) {
      // Type confusion is a programming error, not a data error.
      std::abort();
    }
    const std::size_t at = owned_bytes_.size();
    owned_bytes_.resize(at + sizeof(T));
    std::memcpy(owned_bytes_.data() + at, &value, sizeof(T));
    BindOwned();
  }

  /// Appends to a string column.
  void AppendString(std::string_view s) {
    owned_chars_.insert(owned_chars_.end(), s.begin(), s.end());
    owned_offsets_.push_back(owned_chars_.size());
    BindOwned();
  }

  /// Typed read-only view of a fixed-width column.
  template <typename T>
  std::span<const T> Values() const {
    static_assert(std::is_trivially_copyable_v<T>);
    if (column_detail::TypeTag<T>::value != type_) std::abort();
    return {reinterpret_cast<const T*>(bytes_.data()),
            bytes_.size() / sizeof(T)};
  }

  /// String at row i (valid while the column lives).
  std::string_view StringAt(std::size_t i) const noexcept {
    const std::uint64_t b = offsets_[i];
    const std::uint64_t e = offsets_[i + 1];
    // gdelt-astcheck: allow(view-escape) — the chars view points into the
    // table's mapping (which the Table keeps alive) or into owned chars
    // that only the converter appends to, never a column a reader holds.
    return {chars_.data() + b, static_cast<std::size_t>(e - b)};
  }

  /// Pre-allocates for n fixed-width rows (or n strings of avg_len bytes).
  void Reserve(std::size_t n, std::size_t avg_len = 16) {
    if (type_ == ColumnType::kStr) {
      // gdelt-astcheck: allow(bounded-alloc) — n is an in-memory
      // dictionary size from the caller, never a length parsed out of a file.
      owned_offsets_.reserve(n + 1);
      owned_chars_.reserve(n * avg_len);
    } else {
      // gdelt-astcheck: allow(bounded-alloc) — n is a capacity hint from
      // the caller, not untrusted input.
      owned_bytes_.reserve(n * ColumnTypeSize(type_));
    }
    BindOwned();
  }

  /// Resizes a fixed-width in-memory column to n zero-initialized rows.
  void ResizeFixed(std::size_t n) {
    // gdelt-astcheck: allow(bounded-alloc) — n is an in-memory row count
    // from the caller; the file loader maps columns and never sizes one.
    owned_bytes_.assign(n * ColumnTypeSize(type_), 0);
    BindOwned();
  }

  /// Releases the growth slack of a column built in memory (not mapped).
  void ShrinkToFit() {
    owned_bytes_.shrink_to_fit();
    owned_offsets_.shrink_to_fit();
    owned_chars_.shrink_to_fit();
    BindOwned();
  }

  /// Bytes the column's data spans (mapped or owned), for the memory
  /// accounting the paper reports.
  std::size_t MemoryBytes() const noexcept {
    return bytes_.size_bytes() + offsets_.size_bytes() + chars_.size();
  }

  // --- raw segments (serialization and the zero-copy checks) ---
  std::span<const std::uint8_t> bytes() const noexcept { return bytes_; }
  std::span<const std::uint64_t> offsets() const noexcept { return offsets_; }
  std::string_view chars() const noexcept { return chars_; }

 private:
  /// Points the views at the owned vectors after a mutation.
  void BindOwned() noexcept {
    bytes_ = owned_bytes_;
    offsets_ = owned_offsets_;
    chars_ = {owned_chars_.data(), owned_chars_.size()};
  }

  ColumnType type_;
  std::span<const std::uint8_t> bytes_;     ///< fixed-width payload
  std::span<const std::uint64_t> offsets_;  ///< kStr: rows+1 boundaries
  std::string_view chars_;                  ///< kStr: concatenated bytes
  // Backing store of a column built in memory; empty once mapped.
  std::vector<std::uint8_t> owned_bytes_;
  std::vector<std::uint64_t> owned_offsets_;
  std::vector<char> owned_chars_;
};

}  // namespace gdelt
