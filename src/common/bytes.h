#pragma once
// Byte-buffer primitives shared by every module.
//
// All protocol material (keys, MACs, packets) is carried as `Bytes`
// (std::vector<std::uint8_t>) and viewed through `ByteView`
// (std::span<const std::uint8_t>). Helpers here cover hex encoding,
// comparison, and concatenation; nothing in this header allocates
// implicitly except the functions that return `Bytes` by value.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace dap::common {

using Bytes = std::vector<std::uint8_t>;
using ByteView = std::span<const std::uint8_t>;

/// Renders `data` as lowercase hex ("deadbeef").
std::string to_hex(ByteView data);

/// Parses lowercase/uppercase hex; throws std::invalid_argument on bad input
/// (odd length or non-hex character).
Bytes from_hex(std::string_view hex);

/// Copies a string's bytes (no terminator) into a fresh buffer.
Bytes bytes_of(std::string_view text);

/// Concatenates any number of byte views into one buffer.
Bytes concat(std::initializer_list<ByteView> parts);

/// Equality that does not depend on container identity.
bool equal(ByteView a, ByteView b);

/// Constant-time equality: runtime depends only on the lengths, never on
/// content. Returns false immediately (and only) on length mismatch.
/// Use for all MAC/tag comparisons so forgery attempts cannot use timing.
bool constant_time_equal(ByteView a, ByteView b);

/// Constant-time equality of two packed words (e.g. a receiver's
/// μMAC-and-index records): no branch on content.
[[nodiscard]] constexpr bool constant_time_equal(std::uint64_t a,
                                                 std::uint64_t b) noexcept {
  const std::uint64_t diff = a ^ b;
  return ((diff | (0 - diff)) >> 63) == 0;
}

/// First `n` bytes of `data` as a fresh buffer; throws if n > data.size().
Bytes take_prefix(ByteView data, std::size_t n);

}  // namespace dap::common
