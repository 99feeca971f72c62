#include "io/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace gdelt {
namespace {

/// kCrcTables[0] is the classic byte-at-a-time table; kCrcTables[k][b] is
/// the CRC of byte b followed by k zero bytes, so eight lookups fold one
/// 8-byte word (slicing-by-8).
constexpr std::array<std::array<std::uint32_t, 256>, 8> MakeCrcTables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

constexpr auto kCrcTables = MakeCrcTables();

}  // namespace

std::uint32_t Crc32Update(std::uint32_t crc, const void* data,
                          std::size_t size) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  const auto& t = kCrcTables;
  crc = ~crc;
  if constexpr (std::endian::native == std::endian::little) {
    for (; size >= 8; p += 8, size -= 8) {
      std::uint32_t lo = 0;
      std::uint32_t hi = 0;
      std::memcpy(&lo, p, sizeof(lo));
      std::memcpy(&hi, p + 4, sizeof(hi));
      lo ^= crc;
      crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
            t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^ t[3][hi & 0xFF] ^
            t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    }
  }
  for (; size > 0; ++p, --size) {
    crc = t[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace gdelt
