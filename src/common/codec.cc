#include "common/codec.h"

#include <limits>
#include <stdexcept>

namespace dap::common {

void Writer::u8(std::uint8_t v) { buf_.push_back(v); }

void Writer::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v & 0xff));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Writer::raw(ByteView data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void Writer::blob(ByteView data) {
  if (data.size() > std::numeric_limits<std::uint16_t>::max()) {
    throw std::invalid_argument("Writer::blob: payload exceeds 64 KiB");
  }
  u16(static_cast<std::uint16_t>(data.size()));
  raw(data);
}

std::optional<Bytes> Reader::raw(std::size_t n) {
  if (remaining() < n) return std::nullopt;
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

std::optional<Bytes> Reader::blob() {
  const auto len = u16();
  if (!len) return std::nullopt;
  return raw(*len);
}

}  // namespace dap::common
