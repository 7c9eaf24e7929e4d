#pragma once
// Protocol-level MAC helpers with the paper's wire sizes.
//
// Fig. 4 of the paper fixes the sizes DAP puts on the wire and in memory:
//   MAC_i   = MAC_{K_i}(M_i)            : 80 bits
//   μMAC_i  = MAC_{K_recv}(MAC_i)       : 24 bits (receiver-local re-MAC)
//   index i                              : 32 bits
//   message M                            : 200 bits in the evaluation
// Storing (μMAC, i) costs 56 bits against 280 for (M, MAC), the 80%
// memory saving DAP claims. All tags are truncated HMAC-SHA-256.

#include <cstdint>

#include "common/bytes.h"
#include "crypto/hmac.h"

namespace dap::crypto {

inline constexpr std::size_t kMacBits = 80;
inline constexpr std::size_t kMacSize = kMacBits / 8;        // 10 bytes
inline constexpr std::size_t kMicroMacBits = 24;
inline constexpr std::size_t kMicroMacSize = kMicroMacBits / 8;  // 3 bytes
inline constexpr std::size_t kIndexBits = 32;
inline constexpr std::size_t kMessageBitsEval = 200;

/// MAC_{key}(message) truncated to `size` bytes (default: the paper's
/// 80-bit packet MAC), held inline (no heap buffer). Throws
/// std::invalid_argument for size 0 or > 32.
common::InlineBytes<32> compute_mac(common::ByteView key,
                                    common::ByteView message,
                                    std::size_t size = kMacSize);

/// Receiver-side re-MAC: μMAC = MAC_{recv_key}(mac), truncated to `size`
/// bytes (default: the paper's 24-bit μMAC).
common::InlineBytes<32> micro_mac(common::ByteView recv_key,
                                  common::ByteView mac,
                                  std::size_t size = kMicroMacSize);

/// Constant-time verification of a (possibly truncated) tag.
bool verify_mac(common::ByteView key, common::ByteView message,
                common::ByteView tag);

/// Precomputed-key overload: same tags, but the ipad/opad midstates are
/// paid once per HmacKey instead of once per call. Use for keys applied
/// to many messages (K_recv, per-interval MAC keys during a drain).
common::InlineBytes<32> compute_mac(const HmacKey& key,
                                    common::ByteView message,
                                    std::size_t size = kMacSize);

/// The same μMAC as micro_mac(), read big-endian into an integer: a
/// receiver's packed record holds it next to the 32-bit index without a
/// heap buffer. Throws std::invalid_argument for size outside [1, 4].
std::uint32_t micro_mac_word(const HmacKey& recv_key, common::ByteView mac,
                             std::size_t size = kMicroMacSize);

/// Bits of storage DAP uses per buffered record (μMAC + index).
[[nodiscard]] constexpr std::size_t dap_record_bits(
    std::size_t micro_mac_bits = kMicroMacBits,
    std::size_t index_bits = kIndexBits) noexcept {
  return micro_mac_bits + index_bits;
}

/// Bits of storage a store-message-and-MAC scheme (TESLA/TESLA++ style
/// with the paper's accounting) uses per buffered record.
[[nodiscard]] constexpr std::size_t full_record_bits(
    std::size_t message_bits = kMessageBitsEval,
    std::size_t mac_bits = kMacBits) noexcept {
  return message_bits + mac_bits;
}

}  // namespace dap::crypto
