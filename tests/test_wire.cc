// Unit tests for src/wire: CRC-32, packet encode/decode round-trips,
// framing, corruption detection, and wire-size accounting.

#include <gtest/gtest.h>

#include "common/codec.h"
#include "common/rng.h"
#include "wire/crc32.h"
#include "wire/frame.h"
#include "wire/packet.h"

namespace dap::wire {
namespace {

using common::Bytes;
using common::bytes_of;

// ----------------------------------------------------------------- CRC32

TEST(Crc32, KnownVectors) {
  // Standard check value for "123456789".
  EXPECT_EQ(crc32(bytes_of("123456789")), 0xcbf43926u);
  EXPECT_EQ(crc32({}), 0x00000000u);
  EXPECT_EQ(crc32(bytes_of("a")), 0xe8b7be43u);
}

TEST(Crc32, SlicedMatchesBytewiseAtEveryLengthAndOffset) {
  // The sliced loop takes 8- and 4-byte steps and a bytewise tail; every
  // length 0..300 at every start offset 0..7 exercises each split.
  EXPECT_EQ(detail::crc32_bytewise(bytes_of("123456789")), 0xcbf43926u);
  common::Rng rng(26);
  const Bytes data = rng.bytes(300 + 7);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const common::ByteView view(data.data() + offset, len);
      ASSERT_EQ(crc32(view), detail::crc32_bytewise(view))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, DetectsSingleBitFlip) {
  Bytes data = bytes_of("some payload data");
  const std::uint32_t original = crc32(data);
  data[3] ^= 0x10;
  EXPECT_NE(crc32(data), original);
}

// --------------------------------------------------------------- packets

TeslaPacket sample_tesla() {
  TeslaPacket p;
  p.sender = 7;
  p.interval = 42;
  p.message = bytes_of("hello sensors");
  p.mac = common::InlineBytes<32>(Bytes(10, 0xab));
  p.disclosed_interval = 40;
  p.disclosed_key = common::InlineBytes<32>(Bytes(10, 0xcd));
  return p;
}

TEST(Packet, TeslaRoundTrip) {
  const Packet original{sample_tesla()};
  const auto decoded = decode(encode(original));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<TeslaPacket>(*decoded), sample_tesla());
}

TEST(Packet, MacAnnounceRoundTrip) {
  MacAnnounce p;
  p.sender = 3;
  p.interval = 9;
  p.mac = common::InlineBytes<32>(Bytes(10, 0x55));
  const auto decoded = decode(encode(Packet{p}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<MacAnnounce>(*decoded), p);
}

TEST(Packet, MessageRevealRoundTrip) {
  MessageReveal p;
  p.sender = 3;
  p.interval = 9;
  p.message = bytes_of("reading=42");
  p.key = common::InlineBytes<32>(Bytes(10, 0x66));
  const auto decoded = decode(encode(Packet{p}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<MessageReveal>(*decoded), p);
}

TEST(Packet, KeyDisclosureRoundTrip) {
  KeyDisclosure p;
  p.sender = 1;
  p.interval = 5;
  p.key = common::InlineBytes<32>(Bytes(10, 0x77));
  const auto decoded = decode(encode(Packet{p}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<KeyDisclosure>(*decoded), p);
}

TEST(Packet, CdmRoundTrip) {
  CdmPacket p;
  p.sender = 2;
  p.high_interval = 6;
  p.low_commitment = Bytes(10, 0x88);
  p.next_cdm_image = Bytes(32, 0x99);
  p.mac = common::InlineBytes<32>(Bytes(10, 0xaa));
  p.disclosed_high_key = common::InlineBytes<32>(Bytes(10, 0xbb));
  const auto decoded = decode(encode(Packet{p}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<CdmPacket>(*decoded), p);
}

TEST(Packet, BootstrapRoundTrip) {
  BootstrapPacket p;
  p.sender = 1;
  p.start_interval = 1;
  p.interval_duration_us = 1000000;
  p.commitment = Bytes(10, 0x11);
  p.signature = Bytes(80, 0x22);
  p.signer_public_key = Bytes(32, 0x33);
  const auto decoded = decode(encode(Packet{p}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<BootstrapPacket>(*decoded), p);
}

TEST(Packet, EmptyFieldsRoundTrip) {
  TeslaPacket p;
  p.sender = 1;
  p.interval = 1;
  // message, mac, disclosed_key all empty
  const auto decoded = decode(encode(Packet{p}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<TeslaPacket>(*decoded), p);
}

TEST(Packet, DecodeRejectsEmptyAndUnknownTag) {
  EXPECT_FALSE(decode({}).has_value());
  const Bytes unknown = {0xee, 1, 0, 0, 0};
  EXPECT_FALSE(decode(unknown).has_value());
}

TEST(Packet, DecodeRejectsTruncation) {
  const Bytes full = encode(Packet{sample_tesla()});
  for (std::size_t cut = 1; cut < full.size(); ++cut) {
    const common::ByteView prefix(full.data(), full.size() - cut);
    EXPECT_FALSE(decode(prefix).has_value()) << "cut " << cut;
  }
}

TEST(Packet, DecodeRejectsTrailingGarbage) {
  Bytes data = encode(Packet{sample_tesla()});
  data.push_back(0x00);
  EXPECT_FALSE(decode(data).has_value());
}

TEST(Packet, SenderOfAllKinds) {
  EXPECT_EQ(sender_of(Packet{sample_tesla()}), 7u);
  MacAnnounce a;
  a.sender = 9;
  EXPECT_EQ(sender_of(Packet{a}), 9u);
}

TEST(Packet, WireBitsAccounting) {
  // MacAnnounce: header (8+32) + interval 32 + mac blob (16 + 80) = 168.
  MacAnnounce a;
  a.mac = common::InlineBytes<32>(Bytes(10, 0));
  EXPECT_EQ(a.wire_bits(), 8u + 32 + 32 + 16 + 80);
  // A MAC-only announce must be much smaller than a full TESLA packet.
  EXPECT_LT(Packet{a}.index(), 6u);
  EXPECT_LT(wire_bits(Packet{a}), wire_bits(Packet{sample_tesla()}));
}

TEST(Packet, WireBitsMatchesEncodedSizeOrder) {
  // encode() length in bits should track wire_bits (same fields).
  const Packet p{sample_tesla()};
  EXPECT_EQ(encode(p).size() * 8, wire_bits(p));
}

// ----------------------------------------------------------------- frame

TEST(Frame, RoundTrip) {
  const Packet p{sample_tesla()};
  const auto decoded = deframe(frame(p));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<TeslaPacket>(*decoded), sample_tesla());
}

TEST(Frame, DetectsCorruptionAnywhere) {
  const Bytes framed = frame(Packet{sample_tesla()});
  common::Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    Bytes copy = framed;
    const auto pos = static_cast<std::size_t>(
        rng.uniform(0, copy.size() - 1));
    const auto bit = static_cast<int>(rng.uniform(0, 7));
    copy[pos] = static_cast<std::uint8_t>(copy[pos] ^ (1u << bit));
    EXPECT_FALSE(deframe(copy).has_value());
  }
}

TEST(Frame, RejectsTooShort) {
  EXPECT_FALSE(deframe(Bytes{1, 2, 3}).has_value());
  EXPECT_FALSE(deframe({}).has_value());
}

TEST(Frame, WotsSignatureTransportRoundTrip) {
  std::vector<Bytes> chains = {Bytes(32, 1), Bytes(32, 2), Bytes(32, 3)};
  const Bytes encoded = encode_wots_signature(chains);
  const auto decoded = decode_wots_signature(encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, chains);
}

TEST(Frame, WotsSignatureRejectsTruncation) {
  std::vector<Bytes> chains = {Bytes(32, 1), Bytes(32, 2)};
  Bytes encoded = encode_wots_signature(chains);
  encoded.resize(encoded.size() - 5);
  EXPECT_FALSE(decode_wots_signature(encoded).has_value());
  encoded.clear();
  EXPECT_FALSE(decode_wots_signature(encoded).has_value());
}

TEST(Frame, WotsSignatureRejectsTrailingBytes) {
  Bytes encoded = encode_wots_signature({Bytes(4, 9)});
  encoded.push_back(0);
  EXPECT_FALSE(decode_wots_signature(encoded).has_value());
}

}  // namespace
}  // namespace dap::wire

// ------------------------------------------- malformed-input decode table
//
// One canonical instance per wire message kind, run through the same set
// of adversarial shapes: truncation at every byte, oversized input
// (trailing garbage), a length prefix claiming more bytes than remain
// ("bad index" into the payload), and single-bit flips at every position.
// Decode must never crash; where rejection is guaranteed it must return
// nullopt, and any accepted mutation must still be a canonical encoding.

namespace dap::wire {
namespace {

using common::Bytes;
using common::bytes_of;

struct MalformedCase {
  const char* name;
  Packet packet;
  // Offset of the first u16 blob length prefix in the encoding (after the
  // tag, sender, and any fixed-width integer fields).
  std::size_t first_blob_offset;
};

std::vector<MalformedCase> malformed_cases() {
  TeslaPacket tesla;
  tesla.sender = 7;
  tesla.interval = 42;
  tesla.message = bytes_of("hello sensors");
  tesla.mac = common::InlineBytes<32>(Bytes(10, 0xab));
  tesla.disclosed_interval = 40;
  tesla.disclosed_key = common::InlineBytes<32>(Bytes(10, 0xcd));

  MacAnnounce announce;
  announce.sender = 3;
  announce.interval = 9;
  announce.mac = common::InlineBytes<32>(Bytes(10, 0x55));

  MessageReveal reveal;
  reveal.sender = 3;
  reveal.interval = 9;
  reveal.message = bytes_of("reading=42");
  reveal.key = common::InlineBytes<32>(Bytes(10, 0x66));

  KeyDisclosure disclosure;
  disclosure.sender = 1;
  disclosure.interval = 5;
  disclosure.key = common::InlineBytes<32>(Bytes(10, 0x77));

  CdmPacket cdm;
  cdm.sender = 2;
  cdm.high_interval = 6;
  cdm.low_commitment = Bytes(10, 0x88);
  cdm.next_cdm_image = Bytes(32, 0x99);
  cdm.mac = common::InlineBytes<32>(Bytes(10, 0xaa));
  cdm.disclosed_high_key = common::InlineBytes<32>(Bytes(10, 0xbb));

  BootstrapPacket bootstrap;
  bootstrap.sender = 1;
  bootstrap.start_interval = 1;
  bootstrap.interval_duration_us = 1000000;
  bootstrap.commitment = Bytes(10, 0x11);
  bootstrap.signature = Bytes(80, 0x22);
  bootstrap.signer_public_key = Bytes(32, 0x33);

  // tag(1) + sender(4) + one u32(4) = 9 for every kind except Bootstrap,
  // which carries an extra u64 duration before its first blob.
  return {
      {"tesla", Packet{tesla}, 9},
      {"mac_announce", Packet{announce}, 9},
      {"message_reveal", Packet{reveal}, 9},
      {"key_disclosure", Packet{disclosure}, 9},
      {"cdm", Packet{cdm}, 9},
      {"bootstrap", Packet{bootstrap}, 17},
  };
}

TEST(PacketMalformed, TruncationRejectedForEveryKind) {
  for (const auto& c : malformed_cases()) {
    const Bytes full = encode(c.packet);
    for (std::size_t len = 0; len < full.size(); ++len) {
      const common::ByteView prefix(full.data(), len);
      EXPECT_FALSE(decode(prefix).has_value())
          << c.name << " accepted a " << len << "-byte prefix";
    }
  }
}

TEST(PacketMalformed, OversizedInputRejectedForEveryKind) {
  for (const auto& c : malformed_cases()) {
    Bytes data = encode(c.packet);
    data.push_back(0x00);
    EXPECT_FALSE(decode(data).has_value())
        << c.name << " accepted one trailing byte";
    data.insert(data.end(), 64, 0xff);
    EXPECT_FALSE(decode(data).has_value())
        << c.name << " accepted 65 trailing bytes";
  }
}

TEST(PacketMalformed, OversizedLengthPrefixRejectedForEveryKind) {
  for (const auto& c : malformed_cases()) {
    Bytes data = encode(c.packet);
    ASSERT_GT(data.size(), c.first_blob_offset + 1) << c.name;
    // Claim 0xffff bytes in the first blob: far more than remain.
    data[c.first_blob_offset] = 0xff;
    data[c.first_blob_offset + 1] = 0xff;
    EXPECT_FALSE(decode(data).has_value())
        << c.name << " accepted an oversized length prefix";
    // Off-by-one: claim exactly one byte more than the blob carries.
    Bytes one_more = encode(c.packet);
    one_more[c.first_blob_offset] =
        static_cast<std::uint8_t>(one_more[c.first_blob_offset] + 1);
    EXPECT_FALSE(decode(one_more).has_value())
        << c.name << " accepted a length prefix one past the payload";
  }
}

TEST(PacketMalformed, BitFlipsNeverCrashAndStayCanonical) {
  for (const auto& c : malformed_cases()) {
    const Bytes original = encode(c.packet);
    for (std::size_t pos = 0; pos < original.size(); ++pos) {
      for (int bit = 0; bit < 8; ++bit) {
        Bytes copy = original;
        copy[pos] = static_cast<std::uint8_t>(copy[pos] ^ (1u << bit));
        const auto decoded = decode(copy);
        if (decoded.has_value()) {
          // A flip inside a content field can still parse; it must then
          // re-encode to exactly the mutated bytes (canonical form) and
          // never silently equal the original packet.
          EXPECT_EQ(encode(*decoded), copy)
              << c.name << " byte " << pos << " bit " << bit;
          EXPECT_NE(encode(*decoded), original)
              << c.name << " byte " << pos << " bit " << bit;
        }
      }
    }
  }
}

TEST(PacketMalformed, FramedBitFlipsRejectedByCrc) {
  for (const auto& c : malformed_cases()) {
    const Bytes framed = frame(c.packet);
    common::Rng rng(11);
    for (int trial = 0; trial < 32; ++trial) {
      Bytes copy = framed;
      const auto pos =
          static_cast<std::size_t>(rng.uniform(0, copy.size() - 1));
      const auto bit = static_cast<int>(rng.uniform(0, 7));
      copy[pos] = static_cast<std::uint8_t>(copy[pos] ^ (1u << bit));
      EXPECT_FALSE(deframe(copy).has_value())
          << c.name << " framed flip at byte " << pos << " bit " << bit;
    }
  }
}

TEST(PacketMalformed, ExtremeIndexValuesDecodeCleanly) {
  // Interval/index fields are plain u32s: an attacker can put any value
  // there. The codec must accept them (semantic validation is the
  // receiver's job) without crashing and round-trip them exactly.
  TeslaPacket p;
  p.sender = 0xffffffffu;
  p.interval = 0xffffffffu;
  p.disclosed_interval = 0xffffffffu;
  p.mac = common::InlineBytes<32>(Bytes(10, 0x01));
  const auto decoded = decode(encode(Packet{p}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<TeslaPacket>(*decoded), p);
}

}  // namespace
}  // namespace dap::wire

// ------------------------------------------------ MAC and key decode bound
//
// Every MAC or key field decodes into an InlineBytes<32>. The table holds
// one hand-built encoding per such field (the codec writes it directly,
// so a blob can be longer than any packet can hold); each is tried with
// a 0-, 10-, 32- and 33-byte blob in that field.

namespace dap::wire {
namespace {

using common::ByteView;
using common::Bytes;
using common::Writer;

struct BlobFieldCase {
  const char* field;
  Bytes (*encode_with)(ByteView blob);
};

const BlobFieldCase kBlobFields[] = {
    {"tesla.mac",
     [](ByteView blob) {
       Writer w;
       w.u8(1);  // TeslaPacket
       w.u32(7);
       w.u32(42);
       w.blob(common::bytes_of("hello sensors"));
       w.blob(blob);
       w.u32(40);
       w.blob(Bytes(10, 0xcd));
       return std::move(w).take();
     }},
    {"tesla.disclosed_key",
     [](ByteView blob) {
       Writer w;
       w.u8(1);
       w.u32(7);
       w.u32(42);
       w.blob(common::bytes_of("hello sensors"));
       w.blob(Bytes(10, 0xab));
       w.u32(40);
       w.blob(blob);
       return std::move(w).take();
     }},
    {"mac_announce.mac",
     [](ByteView blob) {
       Writer w;
       w.u8(2);  // MacAnnounce
       w.u32(3);
       w.u32(9);
       w.blob(blob);
       return std::move(w).take();
     }},
    {"message_reveal.key",
     [](ByteView blob) {
       Writer w;
       w.u8(3);  // MessageReveal
       w.u32(3);
       w.u32(9);
       w.blob(common::bytes_of("reading=42"));
       w.blob(blob);
       return std::move(w).take();
     }},
    {"key_disclosure.key",
     [](ByteView blob) {
       Writer w;
       w.u8(4);  // KeyDisclosure
       w.u32(1);
       w.u32(5);
       w.blob(blob);
       return std::move(w).take();
     }},
    {"cdm.mac",
     [](ByteView blob) {
       Writer w;
       w.u8(5);  // CdmPacket
       w.u32(2);
       w.u32(6);
       w.blob(Bytes(10, 0x88));
       w.blob(Bytes(32, 0x99));
       w.blob(blob);
       w.blob(Bytes(10, 0xbb));
       return std::move(w).take();
     }},
    {"cdm.disclosed_high_key",
     [](ByteView blob) {
       Writer w;
       w.u8(5);
       w.u32(2);
       w.u32(6);
       w.blob(Bytes(10, 0x88));
       w.blob(Bytes(32, 0x99));
       w.blob(Bytes(10, 0xaa));
       w.blob(blob);
       return std::move(w).take();
     }},
};

TEST(PacketDecodeBound, MacAndKeyBlobsUpTo32BytesOnly) {
  for (const BlobFieldCase& c : kBlobFields) {
    for (const std::size_t size : {0u, 10u, 32u, 33u}) {
      Bytes blob(size);
      for (std::size_t i = 0; i < size; ++i) {
        blob[i] = static_cast<std::uint8_t>(0x40 + i);
      }
      const Bytes wire = c.encode_with(blob);
      const auto decoded = decode(wire);
      if (size > 32) {
        EXPECT_FALSE(decoded.has_value())
            << c.field << " accepted a " << size << "-byte blob";
        Writer framed;  // a good CRC does not rescue it
        framed.raw(wire);
        framed.u32(crc32(wire));
        EXPECT_FALSE(deframe(framed.data()).has_value()) << c.field;
        continue;
      }
      ASSERT_TRUE(decoded.has_value()) << c.field << " size " << size;
      EXPECT_EQ(encode(*decoded), wire) << c.field << " size " << size;
    }
  }
}

}  // namespace
}  // namespace dap::wire

// --------------------------------------------------- CDM MAC payload scope

namespace dap::wire {
namespace {

TEST(Packet, CdmMacPayloadCoversCommitmentAndImage) {
  CdmPacket p;
  p.sender = 1;
  p.high_interval = 7;
  p.low_commitment = Bytes(10, 0x01);
  p.next_cdm_image = Bytes(32, 0x02);
  p.mac = common::InlineBytes<32>(Bytes(10, 0x03));
  p.disclosed_high_key = common::InlineBytes<32>(Bytes(10, 0x04));
  const Bytes payload = p.mac_payload();
  // Changing any covered field changes the payload...
  CdmPacket q = p;
  q.low_commitment[0] ^= 1;
  EXPECT_NE(q.mac_payload(), payload);
  q = p;
  q.next_cdm_image[0] ^= 1;
  EXPECT_NE(q.mac_payload(), payload);
  q = p;
  q.high_interval = 8;
  EXPECT_NE(q.mac_payload(), payload);
  // ...while the MAC itself and the disclosed key are excluded (the key
  // authenticates via the chain; the MAC cannot cover itself).
  q = p;
  q.mac[0] ^= 1;
  q.disclosed_high_key[0] ^= 1;
  EXPECT_EQ(q.mac_payload(), payload);
}

TEST(Packet, WireBitsMatchesEncodedSizeForAllKinds) {
  common::Rng rng(77);
  MacAnnounce a;
  a.sender = 1;
  a.mac = common::InlineBytes<32>(rng.bytes(10));
  MessageReveal r;
  r.sender = 1;
  r.message = rng.bytes(25);
  r.key = common::InlineBytes<32>(rng.bytes(10));
  KeyDisclosure d;
  d.sender = 1;
  d.key = common::InlineBytes<32>(rng.bytes(10));
  CdmPacket c;
  c.sender = 1;
  c.low_commitment = rng.bytes(10);
  c.mac = common::InlineBytes<32>(rng.bytes(10));
  c.disclosed_high_key = common::InlineBytes<32>(rng.bytes(10));
  BootstrapPacket b;
  b.sender = 1;
  b.commitment = rng.bytes(10);
  b.signature = rng.bytes(100);
  b.signer_public_key = rng.bytes(32);
  for (const Packet& packet :
       {Packet{a}, Packet{r}, Packet{d}, Packet{c}, Packet{b}}) {
    EXPECT_EQ(encode(packet).size() * 8, wire_bits(packet));
  }
}

}  // namespace
}  // namespace dap::wire
