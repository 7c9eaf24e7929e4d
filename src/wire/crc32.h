#pragma once
// CRC-32 (IEEE 802.3 polynomial, reflected) for link-layer framing.
//
// The simulator's channel can corrupt frames; CRC catches corruption the
// way a real link layer would, so protocol code above only ever sees
// whole, uncorrupted packets (or nothing). CRC is NOT a security
// mechanism — authenticity comes from the MACs.

#include <cstdint>

#include "common/bytes.h"

namespace dap::wire {

/// Slicing-by-8: eight table lookups per 8-byte step, then a bytewise
/// tail. Same value as crc32_bytewise on every input.
std::uint32_t crc32(common::ByteView data) noexcept;

namespace detail {

/// One table lookup per byte: the reference the sliced loop is tested
/// against.
std::uint32_t crc32_bytewise(common::ByteView data) noexcept;

}  // namespace detail

}  // namespace dap::wire
