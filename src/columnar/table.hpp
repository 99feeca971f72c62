// A named collection of equal-length columns with a checksummed binary
// file format ("convert once, scan forever").
//
// File layout, format v3 (little-endian):
//   magic "GDLTTBL1"
//   u32 format version (3)
//   u32 column count, u64 row count
//   per column: name (u32 len + bytes), u8 type, then one segment
//               descriptor (u64 file offset, u64 length) for a
//               fixed-width type, two for kStr (offsets, then chars)
//   the segments, in descriptor order, each starting on a 64-byte
//   boundary (zero padding between them):
//     fixed width: the raw element array (rows x width bytes)
//     kStr: (rows+1) u64 offsets; the chars blob
//   integrity footer:
//     u64 body length (bytes above the footer)
//     u32 CRC-32 of the body
//     magic "GDLTEND1"
//
// ReadFromFile maps the file read-only and binds every column to its
// segments in place: nothing is copied, and every process that loads the
// same file shares its page-cache pages. The mapping is untrusted input,
// so the reader checks the magics, the version, the footer's body length
// and the CRC, then every descriptor (alignment, bounds without overflow,
// order without overlap, length against the row count) and every string
// column's offsets (start at 0, monotone, end at the chars length)
// before a view is bound. Any violation is DataLoss. The file must not be
// modified or truncated in place while a table maps it (truncation raises
// SIGBUS); replacing it by rename, as WriteToFileAtomic does, is safe.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "columnar/column.hpp"
#include "util/status.hpp"

namespace gdelt {

class MemoryMappedFile;

/// An immutable-after-build table of equal-length columns.
class Table {
 public:
  /// Adds a column; all columns must end up the same length.
  /// Returns the new column for appending.
  Column& AddColumn(const std::string& name, ColumnType type);

  /// Column by name; nullptr if absent.
  const Column* FindColumn(std::string_view name) const noexcept;

  /// Column by name; aborts if absent (engine-internal access to columns
  /// whose presence was validated at load).
  const Column& GetColumn(std::string_view name) const;

  bool HasColumn(std::string_view name) const noexcept {
    return FindColumn(name) != nullptr;
  }

  std::size_t num_columns() const noexcept { return columns_.size(); }

  /// Rows, taken from the first column (0 for an empty table).
  std::size_t num_rows() const noexcept;

  /// Checks all columns have equal length.
  Status Validate() const;

  /// Total column data bytes (mapped or owned).
  std::size_t MemoryBytes() const noexcept;

  /// Serializes to a file (see format above).
  Status WriteToFile(const std::string& path) const;

  /// Crash-safe WriteToFile: writes `path + ".tmp"`, fsyncs, renames, so
  /// `path` is never left torn even across kill -9 mid-write.
  Status WriteToFileAtomic(const std::string& path) const;

  /// Maps a table file and binds its columns in place, after verifying
  /// the framing, footer length, checksum and every segment descriptor.
  static Result<Table> ReadFromFile(const std::string& path);

  /// The bytes of the file a loaded table maps (empty for a table built
  /// in memory). Every column of a loaded table views into it.
  std::string_view mapped_bytes() const noexcept;

  const std::map<std::string, Column>& columns() const noexcept {
    return columns_;
  }

 private:
  std::map<std::string, Column> columns_;
  /// Keeps a loaded table's mapping alive, through moves too.
  std::shared_ptr<const MemoryMappedFile> mapping_;
};

}  // namespace gdelt
