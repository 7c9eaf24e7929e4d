#pragma once
// Link-layer framing: packet bytes + CRC-32 trailer.
//
// `deframe` is the entry point for bytes that come from outside the
// program (the end-to-end driver's receive path, the fuzz corpus): it
// drops a frame whose CRC does not match the way real link hardware
// would, so the protocol layer sees only intact packets or losses.

#include <optional>

#include "common/bytes.h"
#include "wire/packet.h"

namespace dap::wire {

/// encode(packet) + 32-bit CRC trailer.
common::Bytes frame(const Packet& packet);

/// Verifies CRC and decodes; nullopt on CRC mismatch or malformed payload.
std::optional<Packet> deframe(common::ByteView bytes);

/// Serializes a WOTS signature for transport in BootstrapPacket.
common::Bytes encode_wots_signature(
    const std::vector<common::Bytes>& chains);
std::optional<std::vector<common::Bytes>> decode_wots_signature(
    common::ByteView data);

}  // namespace dap::wire
