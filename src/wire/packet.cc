#include "wire/packet.h"

#include "common/codec.h"
#include "common/contracts.h"

namespace dap::wire {

namespace {

// Fixed header: type tag (8) + sender (32).
constexpr std::size_t kHeaderBits = 8 + 32;

enum class Tag : std::uint8_t {
  kTesla = 1,
  kMacAnnounce = 2,
  kMessageReveal = 3,
  kKeyDisclosure = 4,
  kCdm = 5,
  kBootstrap = 6,
};

std::size_t blob_bits(common::ByteView b) noexcept {
  return 16 + b.size() * 8;  // u16 length prefix + payload
}

// decode() field readers: each fills `out` and reports success.
bool read(common::Reader& r, std::uint32_t& out) noexcept {
  const auto v = r.u32();
  if (v) out = *v;
  return v.has_value();
}

bool read(common::Reader& r, std::uint64_t& out) noexcept {
  const auto v = r.u64();
  if (v) out = *v;
  return v.has_value();
}

bool read(common::Reader& r, common::Bytes& out) {
  const auto view = r.blob_view();
  if (view) out.assign(view->begin(), view->end());
  return view.has_value();
}

/// A MAC or key field: a blob of at most 32 bytes, copied in place.
bool read(common::Reader& r, common::InlineBytes<32>& out) noexcept {
  const auto view = r.blob_view();
  if (!view || view->size() > common::InlineBytes<32>::capacity()) {
    return false;
  }
  out.assign(*view);
  return true;
}

// Each kind's fields after the tag and sender, in wire order.
bool read_fields(common::Reader& r, TeslaPacket& p) {
  return read(r, p.interval) && read(r, p.message) && read(r, p.mac) &&
         read(r, p.disclosed_interval) && read(r, p.disclosed_key);
}

bool read_fields(common::Reader& r, MacAnnounce& p) noexcept {
  return read(r, p.interval) && read(r, p.mac);
}

bool read_fields(common::Reader& r, MessageReveal& p) {
  return read(r, p.interval) && read(r, p.message) && read(r, p.key);
}

bool read_fields(common::Reader& r, KeyDisclosure& p) noexcept {
  return read(r, p.interval) && read(r, p.key);
}

bool read_fields(common::Reader& r, CdmPacket& p) {
  return read(r, p.high_interval) && read(r, p.low_commitment) &&
         read(r, p.next_cdm_image) && read(r, p.mac) &&
         read(r, p.disclosed_high_key);
}

bool read_fields(common::Reader& r, BootstrapPacket& p) {
  return read(r, p.start_interval) && read(r, p.interval_duration_us) &&
         read(r, p.commitment) && read(r, p.signature) &&
         read(r, p.signer_public_key);
}

/// Decodes the rest of a T straight into the returned packet (one
/// object, returned by NRVO), so each MAC or key is copied once, from
/// the input; trailing bytes reject the packet. The packet starts as the
/// aggregate T{sender}: value-initializing a T instead makes GCC zero
/// the whole optional<Packet> first.
template <class T>
std::optional<Packet> decode_as(common::Reader& r, NodeId sender) {
  std::optional<Packet> out(std::in_place, std::in_place_type<T>, sender);
  if (!read_fields(r, *std::get_if<T>(&*out)) || !r.exhausted()) out.reset();
  return out;
}

}  // namespace

std::size_t TeslaPacket::wire_bits() const noexcept {
  return kHeaderBits + 32 + blob_bits(message) + blob_bits(mac) + 32 +
         blob_bits(disclosed_key);
}

std::size_t MacAnnounce::wire_bits() const noexcept {
  return kHeaderBits + 32 + blob_bits(mac);
}

std::size_t MessageReveal::wire_bits() const noexcept {
  return kHeaderBits + 32 + blob_bits(message) + blob_bits(key);
}

std::size_t KeyDisclosure::wire_bits() const noexcept {
  return kHeaderBits + 32 + blob_bits(key);
}

common::Bytes CdmPacket::mac_payload() const {
  common::Writer w;
  w.u32(high_interval);
  w.blob(low_commitment);
  w.blob(next_cdm_image);
  return std::move(w).take();
}

std::size_t CdmPacket::wire_bits() const noexcept {
  return kHeaderBits + 32 + blob_bits(low_commitment) +
         blob_bits(next_cdm_image) + blob_bits(mac) +
         blob_bits(disclosed_high_key);
}

std::size_t BootstrapPacket::wire_bits() const noexcept {
  return kHeaderBits + 32 + 64 + blob_bits(commitment) + blob_bits(signature) +
         blob_bits(signer_public_key);
}

std::size_t wire_bits(const Packet& packet) noexcept {
  return std::visit([](const auto& p) { return p.wire_bits(); }, packet);
}

NodeId sender_of(const Packet& packet) noexcept {
  return std::visit([](const auto& p) { return p.sender; }, packet);
}

common::Bytes encode(const Packet& packet) {
  common::Writer w;
  std::visit(
      [&w](const auto& p) {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, TeslaPacket>) {
          w.u8(static_cast<std::uint8_t>(Tag::kTesla));
          w.u32(p.sender);
          w.u32(p.interval);
          w.blob(p.message);
          w.blob(p.mac);
          w.u32(p.disclosed_interval);
          w.blob(p.disclosed_key);
        } else if constexpr (std::is_same_v<T, MacAnnounce>) {
          w.u8(static_cast<std::uint8_t>(Tag::kMacAnnounce));
          w.u32(p.sender);
          w.u32(p.interval);
          w.blob(p.mac);
        } else if constexpr (std::is_same_v<T, MessageReveal>) {
          w.u8(static_cast<std::uint8_t>(Tag::kMessageReveal));
          w.u32(p.sender);
          w.u32(p.interval);
          w.blob(p.message);
          w.blob(p.key);
        } else if constexpr (std::is_same_v<T, KeyDisclosure>) {
          w.u8(static_cast<std::uint8_t>(Tag::kKeyDisclosure));
          w.u32(p.sender);
          w.u32(p.interval);
          w.blob(p.key);
        } else if constexpr (std::is_same_v<T, CdmPacket>) {
          w.u8(static_cast<std::uint8_t>(Tag::kCdm));
          w.u32(p.sender);
          w.u32(p.high_interval);
          w.blob(p.low_commitment);
          w.blob(p.next_cdm_image);
          w.blob(p.mac);
          w.blob(p.disclosed_high_key);
        } else if constexpr (std::is_same_v<T, BootstrapPacket>) {
          w.u8(static_cast<std::uint8_t>(Tag::kBootstrap));
          w.u32(p.sender);
          w.u32(p.start_interval);
          w.u64(p.interval_duration_us);
          w.blob(p.commitment);
          w.blob(p.signature);
          w.blob(p.signer_public_key);
        }
      },
      packet);
  common::Bytes out = std::move(w).take();
  DAP_ENSURE(out.size() * 8 == wire_bits(packet),
             "encode: serialized size disagrees with wire_bits accounting");
  return out;
}

std::optional<Packet> decode(common::ByteView data) {
  // The bytes themselves are adversarial and must only ever be
  // *rejected* (nullopt), never asserted on; the view's shape is the
  // caller's contract.
  DAP_REQUIRE(data.data() != nullptr || data.empty(),
              "decode: null view with nonzero length");
  common::Reader r(data);
  const auto tag = r.u8();
  const auto sender = r.u32();
  if (!tag || !sender) return std::nullopt;
  switch (static_cast<Tag>(*tag)) {
    case Tag::kTesla:
      return decode_as<TeslaPacket>(r, *sender);
    case Tag::kMacAnnounce:
      return decode_as<MacAnnounce>(r, *sender);
    case Tag::kMessageReveal:
      return decode_as<MessageReveal>(r, *sender);
    case Tag::kKeyDisclosure:
      return decode_as<KeyDisclosure>(r, *sender);
    case Tag::kCdm:
      return decode_as<CdmPacket>(r, *sender);
    case Tag::kBootstrap:
      return decode_as<BootstrapPacket>(r, *sender);
  }
  return std::nullopt;
}

}  // namespace dap::wire
