/// \file crc32.hpp
/// \brief CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) checksums.
///
/// The checkpoint container stores a CRC per header and per payload section
/// so that torn writes, truncation and silent bitrot are detected on load
/// instead of being deserialized into garbage integrator state. The
/// polynomial and bit order match zlib's crc32, so external tooling can
/// verify felis checkpoint sections without linking felis.
#pragma once

#include <array>
#include <cstdint>

#include "common/types.hpp"

namespace felis {

namespace detail {
/// Slicing-by-8 tables: t[0] is the classic bytewise table, and t[k][b] is
/// the CRC contribution of byte b followed by k zero bytes, so eight table
/// lookups advance the CRC over eight bytes at once.
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

inline const Crc32Tables& crc32_tables() {
  static const Crc32Tables tables = [] {
    Crc32Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
      t[0][i] = c;
    }
    for (usize k = 1; k < 8; ++k)
      for (usize i = 0; i < 256; ++i)
        t[k][i] = t[0][t[k - 1][i] & 0xffu] ^ (t[k - 1][i] >> 8);
    return t;
  }();
  return tables;
}

/// Little-endian 32-bit word from four bytes. Defined on bytes, so the CRC
/// is the same on any host; compilers fuse it into one load where they can.
inline std::uint32_t load_le32(const std::byte* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}
}  // namespace detail

/// CRC-32 of `n` bytes. Chainable: pass a previous result as `seed` to
/// extend the checksum over a split buffer.
inline std::uint32_t crc32(const std::byte* data, usize n,
                           std::uint32_t seed = 0) {
  const detail::Crc32Tables& t = detail::crc32_tables();
  std::uint32_t c = seed ^ 0xffffffffu;
  for (; n >= 8; data += 8, n -= 8) {
    const std::uint32_t lo = c ^ detail::load_le32(data);
    const std::uint32_t hi = detail::load_le32(data + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
        t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
        t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++data, --n)
    c = t[0][(c ^ static_cast<std::uint32_t>(*data)) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

inline std::uint32_t crc32(const std::vector<std::byte>& data,
                           std::uint32_t seed = 0) {
  return crc32(data.data(), data.size(), seed);
}

}  // namespace felis
