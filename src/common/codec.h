#pragma once
// Little-endian wire codec used by src/wire for packet serialization.
//
// Writer appends fixed-width integers and length-prefixed blobs to a growing
// buffer; Reader consumes them in order and reports truncation via
// std::optional rather than exceptions, because truncated packets are an
// expected runtime condition on a lossy channel. Reader's integer and view
// reads are defined here so they inline into decoders: an out-of-line call
// returns its std::optional through the stack, and reloading it costs a
// store-forwarding stall per field.

#include <cstdint>
#include <optional>

#include "common/bytes.h"

namespace dap::common {

class Writer {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Raw bytes, no length prefix (fixed-size fields like MACs).
  void raw(ByteView data);
  /// u16 length prefix followed by the bytes; throws if data > 64 KiB.
  void blob(ByteView data);

  [[nodiscard]] const Bytes& data() const noexcept { return buf_; }
  Bytes take() && { return std::move(buf_); }

 private:
  Bytes buf_;
};

class Reader {
 public:
  explicit Reader(ByteView data) noexcept : data_(data) {}

  std::optional<std::uint8_t> u8() noexcept {
    if (remaining() < 1) return std::nullopt;
    return data_[pos_++];
  }
  std::optional<std::uint16_t> u16() noexcept {
    if (remaining() < 2) return std::nullopt;
    const auto v = static_cast<std::uint16_t>(byte(0) | byte(1) << 8);
    pos_ += 2;
    return v;
  }
  std::optional<std::uint32_t> u32() noexcept {
    if (remaining() < 4) return std::nullopt;
    const std::uint32_t v = le32(0);
    pos_ += 4;
    return v;
  }
  std::optional<std::uint64_t> u64() noexcept {
    if (remaining() < 8) return std::nullopt;
    const std::uint64_t v = le32(0) | std::uint64_t{le32(4)} << 32;
    pos_ += 8;
    return v;
  }
  /// Exactly n raw bytes.
  std::optional<Bytes> raw(std::size_t n);
  /// u16 length-prefixed blob.
  std::optional<Bytes> blob();
  /// The same blob as a view into the input (no copy); valid while the
  /// input is.
  std::optional<ByteView> blob_view() noexcept {
    const auto len = u16();
    if (!len || remaining() < *len) return std::nullopt;
    const ByteView out = data_.subspan(pos_, *len);
    pos_ += *len;
    return out;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] bool exhausted() const noexcept { return remaining() == 0; }

 private:
  /// Byte `k` past the cursor, widened (caller checked remaining()).
  [[nodiscard]] std::uint32_t byte(std::size_t k) const noexcept {
    return data_[pos_ + k];
  }
  [[nodiscard]] std::uint32_t le32(std::size_t k) const noexcept {
    return byte(k) | byte(k + 1) << 8 | byte(k + 2) << 16 | byte(k + 3) << 24;
  }

  ByteView data_;
  std::size_t pos_ = 0;
};

}  // namespace dap::common
