#include "wire/crc32.h"

#include <array>

namespace dap::wire {

namespace {

// kTables[0] is the classic bytewise table; kTables[k][b] is the CRC of
// byte b followed by k zero bytes, so eight lookups advance eight bytes.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = t[0][prev & 0xffu] ^ (prev >> 8);
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

std::uint32_t step(std::uint32_t c, std::uint8_t b) noexcept {
  return kTables[0][(c ^ b) & 0xffu] ^ (c >> 8);
}

/// The running CRC xor the next four input bytes (little-endian): the
/// word whose bytes index the highest tables of a slice.
std::uint32_t fold4(std::uint32_t c, const std::uint8_t* p) noexcept {
  return c ^ (std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
              std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24);
}

}  // namespace

std::uint32_t crc32(common::ByteView data) noexcept {
  std::uint32_t c = 0xffffffffu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t w = fold4(c, p);
    c = kTables[7][w & 0xffu] ^ kTables[6][(w >> 8) & 0xffu] ^
        kTables[5][(w >> 16) & 0xffu] ^ kTables[4][w >> 24] ^
        kTables[3][p[4]] ^ kTables[2][p[5]] ^ kTables[1][p[6]] ^
        kTables[0][p[7]];
  }
  if (n >= 4) {  // one four-byte slice before the bytewise tail
    const std::uint32_t w = fold4(c, p);
    c = kTables[3][w & 0xffu] ^ kTables[2][(w >> 8) & 0xffu] ^
        kTables[1][(w >> 16) & 0xffu] ^ kTables[0][w >> 24];
    p += 4;
    n -= 4;
  }
  for (; n > 0; ++p, --n) c = step(c, *p);
  return c ^ 0xffffffffu;
}

namespace detail {

std::uint32_t crc32_bytewise(common::ByteView data) noexcept {
  std::uint32_t c = 0xffffffffu;
  for (std::uint8_t b : data) c = step(c, b);
  return c ^ 0xffffffffu;
}

}  // namespace detail

}  // namespace dap::wire
