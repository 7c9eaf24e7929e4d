#pragma once
// Packet model for the whole protocol family.
//
// Every broadcast in the TESLA family (multi-level μTESLA, TESLA++, DAP)
// is one of a small set of packet kinds; they are modelled as a
// std::variant so protocol code pattern-matches instead of down-casting.
// Each kind knows its on-wire bit size (used by the bandwidth model and
// by the memory-cost experiment E6).
//
// MAC and chain-key fields are `common::InlineBytes<32>`: the paper fixes
// their widths (an 80-bit MAC, keys of at most one SHA-256 digest), so a
// decoded announce or reveal carries them in place instead of in a heap
// buffer. decode() rejects a MAC or key blob longer than 32 bytes;
// messages, signatures and commitments stay variable-length `Bytes`.

#include <cstdint>
#include <optional>
#include <variant>

#include "common/bytes.h"

namespace dap::wire {

using NodeId = std::uint32_t;
using IntervalIndex = std::uint32_t;

/// TESLA-style data packet: message + MAC + (optionally) a disclosed key
/// for an earlier interval, all in one broadcast.
struct TeslaPacket {
  NodeId sender = 0;
  IntervalIndex interval = 0;        // interval whose key MACed this packet
  common::Bytes message;
  common::InlineBytes<32> mac;       // MAC_{K'_interval}(message)
  IntervalIndex disclosed_interval = 0;
  common::InlineBytes<32> disclosed_key;  // empty: no disclosure piggybacked

  [[nodiscard]] std::size_t wire_bits() const noexcept;
  bool operator==(const TeslaPacket&) const = default;
};

/// DAP step 3 (Fig. 4): only the MAC and the interval index travel ahead
/// of the message. Also used by TESLA++ as its "MAC-first" announcement.
struct MacAnnounce {
  NodeId sender = 0;
  IntervalIndex interval = 0;
  common::InlineBytes<32> mac;  // MAC_{K_interval}(M_interval), 80 bits

  [[nodiscard]] std::size_t wire_bits() const noexcept;
  bool operator==(const MacAnnounce&) const = default;
};

/// DAP step 4: the message, the now-disclosed key and the index together.
struct MessageReveal {
  NodeId sender = 0;
  IntervalIndex interval = 0;
  common::Bytes message;
  common::InlineBytes<32> key;  // K_interval, disclosed

  [[nodiscard]] std::size_t wire_bits() const noexcept;
  bool operator==(const MessageReveal&) const = default;
};

/// Standalone key disclosure (μTESLA discloses once per interval).
struct KeyDisclosure {
  NodeId sender = 0;
  IntervalIndex interval = 0;  // interval the key belongs to
  common::InlineBytes<32> key;

  [[nodiscard]] std::size_t wire_bits() const noexcept;
  bool operator==(const KeyDisclosure&) const = default;
};

/// Multi-level μTESLA commitment-distribution message for high-level
/// interval i:
///   CDM_i = i | K_{i+2,0} | H(CDM_{i+1})? | MAC_{K'_i}(...) | K_{i-1}
/// The `next_cdm_image` field is EDRP's addition (empty otherwise).
struct CdmPacket {
  NodeId sender = 0;
  IntervalIndex high_interval = 0;
  common::Bytes low_commitment;      // commitment of a future low-level chain
  common::Bytes next_cdm_image;      // EDRP: H(CDM_{i+1}); empty in original
  common::InlineBytes<32> mac;                 // MAC under high key K_i
  common::InlineBytes<32> disclosed_high_key;  // K_{i-1}

  /// The bytes covered by `mac` (everything except mac and disclosed key).
  [[nodiscard]] common::Bytes mac_payload() const;
  [[nodiscard]] std::size_t wire_bits() const noexcept;
  bool operator==(const CdmPacket&) const = default;
};

/// Bootstrap: the chain commitment, interval schedule, and a WOTS
/// signature transported as raw bytes (signature layout is handled by
/// crypto::WotsSignature; here it is opaque payload).
struct BootstrapPacket {
  NodeId sender = 0;
  IntervalIndex start_interval = 0;
  std::uint64_t interval_duration_us = 0;
  common::Bytes commitment;
  common::Bytes signature;  // serialized WOTS signature
  common::Bytes signer_public_key;

  [[nodiscard]] std::size_t wire_bits() const noexcept;
  bool operator==(const BootstrapPacket&) const = default;
};

using Packet = std::variant<TeslaPacket, MacAnnounce, MessageReveal,
                            KeyDisclosure, CdmPacket, BootstrapPacket>;

/// On-wire size of any packet in bits (header + payload, excluding CRC).
std::size_t wire_bits(const Packet& packet) noexcept;

/// Serializes with a leading type tag. Never fails for well-formed packets.
common::Bytes encode(const Packet& packet);

/// Parses; nullopt for truncated/garbled/unknown-tag input and for a MAC
/// or key blob longer than 32 bytes.
std::optional<Packet> decode(common::ByteView data);

/// The sender id of any packet kind.
NodeId sender_of(const Packet& packet) noexcept;

}  // namespace dap::wire
