// CRC-32 (IEEE 802.3 / zlib polynomial), table-driven, eight bytes per
// step (slicing-by-8).
//
// Used for ZIP container entries and as the integrity checksum in the
// binary column-store footer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace gdelt {

/// Updates a running CRC-32 with more bytes. Start with crc = 0.
std::uint32_t Crc32Update(std::uint32_t crc, const void* data,
                          std::size_t size) noexcept;

/// One-shot CRC-32.
inline std::uint32_t Crc32(std::string_view data) noexcept {
  return Crc32Update(0, data.data(), data.size());
}

}  // namespace gdelt
