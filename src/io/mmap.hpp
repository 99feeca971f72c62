// Read-only memory-mapped files.
//
// The binary column store is served straight from a read-only mapping of
// each table file: columns are views into it, so multi-GB tables appear
// in memory without a copy, and every process mapping the same file
// shares one page-cache copy of its pages.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "util/status.hpp"

namespace gdelt {

/// RAII wrapper over an mmap'd read-only file.
class MemoryMappedFile {
 public:
  MemoryMappedFile() = default;
  ~MemoryMappedFile();
  MemoryMappedFile(MemoryMappedFile&& other) noexcept;
  MemoryMappedFile& operator=(MemoryMappedFile&& other) noexcept;
  MemoryMappedFile(const MemoryMappedFile&) = delete;
  MemoryMappedFile& operator=(const MemoryMappedFile&) = delete;

  /// Maps the whole file read-only. Empty files map to a null span.
  static Result<MemoryMappedFile> Open(const std::string& path);

  const char* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  std::string_view view() const noexcept { return {data_, size_}; }
  bool is_open() const noexcept { return data_ != nullptr || size_ == 0; }

 private:
  void Release() noexcept;

  char* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
};

}  // namespace gdelt
