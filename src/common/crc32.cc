#include "common/crc32.h"

#include <array>

namespace dbsherlock::common {

namespace {

using Tables = std::array<std::array<uint32_t, 256>, 8>;

/// tables[0] is the classic bytewise table; tables[k][b] is the CRC of
/// byte b followed by k zero bytes, so one 8-byte word folds in with eight
/// independent lookups.
Tables BuildTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  static const Tables kTables = BuildTables();
  const auto& t = kTables;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (; n >= 8; p += 8, n -= 8) {
    // Little-endian assembly (compiles to plain loads on x86), so the
    // result does not depend on host byte order or alignment.
    uint32_t lo = (static_cast<uint32_t>(p[0]) |
                   static_cast<uint32_t>(p[1]) << 8 |
                   static_cast<uint32_t>(p[2]) << 16 |
                   static_cast<uint32_t>(p[3]) << 24) ^
                  crc;
    uint32_t hi = static_cast<uint32_t>(p[4]) |
                  static_cast<uint32_t>(p[5]) << 8 |
                  static_cast<uint32_t>(p[6]) << 16 |
                  static_cast<uint32_t>(p[7]) << 24;
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
          t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return ~crc;
}

}  // namespace dbsherlock::common
