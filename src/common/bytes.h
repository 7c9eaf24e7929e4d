#pragma once
// Byte-buffer primitives shared by every module.
//
// Variable-length protocol material (messages, packets, signatures) is
// carried as `Bytes` (std::vector<std::uint8_t>); the fixed-width fields
// the paper bounds (MACs, chain keys: at most 32 bytes) are carried as
// `InlineBytes<32>`, which lives in place and never touches the heap.
// Both are viewed through `ByteView` (std::span<const std::uint8_t>).
// Helpers here cover hex encoding, comparison, and concatenation;
// nothing in this header allocates implicitly except the functions that
// return `Bytes` by value.

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/contracts.h"

namespace dap::common {

using Bytes = std::vector<std::uint8_t>;
using ByteView = std::span<const std::uint8_t>;

/// A byte string of at most N bytes held inline: a size plus a fixed
/// array, so building, copying or destroying one never allocates.
/// Converts implicitly to ByteView (it is a contiguous range); `==`
/// compares the live bytes only, against another InlineBytes or any
/// byte range.
template <std::size_t N>
class InlineBytes {
  static_assert(N > 0 && N <= 255, "InlineBytes: size must fit a uint8_t");

 public:
  InlineBytes() = default;
  /// Copies `data`; a value longer than N is a caller bug (decoders
  /// reject oversize wire blobs before they get here).
  explicit InlineBytes(ByteView data) noexcept { assign(data); }

  /// Replaces the value with `data` in place (same contract).
  void assign(ByteView data) noexcept {
    DAP_REQUIRE(data.size() <= N, "InlineBytes: value exceeds capacity");
    size_ = static_cast<std::uint8_t>(data.size());
    // Two overlapping fixed-size copies instead of a memmove call: this
    // runs once per MAC or key a receiver decodes.
    const std::uint8_t* src = data.data();
    std::uint8_t* dst = bytes_.data();
    const std::size_t n = data.size();
    if (n >= 16) {
      std::memcpy(dst, src, 16);
      std::memcpy(dst + n - 16, src + n - 16, 16);
    } else if (n >= 8) {
      std::memcpy(dst, src, 8);
      std::memcpy(dst + n - 8, src + n - 8, 8);
    } else {
      for (std::size_t i = 0; i < n; ++i) dst[i] = src[i];
    }
  }

  [[nodiscard]] static constexpr std::size_t capacity() noexcept { return N; }
  [[nodiscard]] const std::uint8_t* data() const noexcept {
    return bytes_.data();
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] const std::uint8_t* begin() const noexcept { return data(); }
  [[nodiscard]] const std::uint8_t* end() const noexcept {
    return data() + size_;
  }
  std::uint8_t operator[](std::size_t i) const noexcept {
    DAP_REQUIRE(i < size_, "InlineBytes: index out of range");
    return bytes_[i];
  }
  std::uint8_t& operator[](std::size_t i) noexcept {
    DAP_REQUIRE(i < size_, "InlineBytes: index out of range");
    return bytes_[i];
  }

  friend bool operator==(const InlineBytes& a, const InlineBytes& b) noexcept {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator==(const InlineBytes& a, ByteView b) noexcept {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  std::uint8_t size_ = 0;
  std::array<std::uint8_t, N> bytes_{};
};

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

}  // namespace dap::common
