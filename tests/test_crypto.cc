// Unit tests for src/crypto: SHA-256 against FIPS 180-4 vectors,
// HMAC-SHA-256 against RFC 4231, PRF domain separation, one-way key
// chains, MAC truncation, and WOTS one-time signatures.

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "crypto/hmac.h"
#include "crypto/keychain.h"
#include "crypto/mac.h"
#include "crypto/merkle.h"
#include "crypto/prf.h"
#include "crypto/sha256.h"
#include "crypto/wots.h"

namespace dap::crypto {
namespace {

using common::Bytes;
using common::ByteView;
using common::bytes_of;
using common::from_hex;
using common::to_hex;

std::string hex_digest(const Digest& d) {
  return to_hex(ByteView(d.data(), d.size()));
}

// --------------------------------------------------------------- SHA-256

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex_digest(sha256({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex_digest(sha256(bytes_of("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hex_digest(sha256(bytes_of(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex_digest(h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ExactBlockBoundary) {
  // 64 bytes: padding spills into a second block.
  const Bytes block(64, 'x');
  const Digest once = sha256(block);
  Sha256 streamed;
  streamed.update(ByteView(block).first(31));
  streamed.update(ByteView(block).subspan(31));
  EXPECT_EQ(once, streamed.finalize());
}

TEST(Sha256, FiftyFiveAndFiftySixBytePadding) {
  // 55 bytes fits length in the same block; 56 forces an extra block.
  // Whole, byte-at-a-time and split updates (a partial block buffered
  // across the call) must agree under every backend's streaming kernel.
  for (const Sha256Backend backend : supported_sha256_backends()) {
    force_sha256_backend(backend);
    for (std::size_t n : {55u, 56u, 63u, 64u, 65u}) {
      const Bytes data(n, 'q');
      Sha256 a;
      a.update(data);
      Sha256 b;
      for (std::size_t i = 0; i < n; ++i) b.update(ByteView(&data[i], 1));
      Sha256 c;
      c.update(ByteView(data).first(n / 3));
      c.update(ByteView(data).subspan(n / 3));
      const Digest whole = a.finalize();
      EXPECT_EQ(whole, b.finalize()) << backend_name(backend) << " " << n;
      EXPECT_EQ(whole, c.finalize()) << backend_name(backend) << " " << n;
    }
  }
  clear_sha256_backend_override();
}

TEST(Sha256, ResetRestoresInitialState) {
  Sha256 h;
  h.update(bytes_of("garbage"));
  h.reset();
  h.update(bytes_of("abc"));
  EXPECT_EQ(hex_digest(h.finalize()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, BytesHelperMatchesDigest) {
  const Digest d = sha256(bytes_of("abc"));
  EXPECT_EQ(sha256_bytes(bytes_of("abc")), Bytes(d.begin(), d.end()));
}

// ------------------------------------------------------------------ HMAC

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const Digest tag = hmac_sha256(key, bytes_of("Hi There"));
  EXPECT_EQ(hex_digest(tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  const Digest tag = hmac_sha256(bytes_of("Jefe"),
                                 bytes_of("what do ya want for nothing?"));
  EXPECT_EQ(hex_digest(tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(hex_digest(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231Case6OversizedKey) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(
      hex_digest(hmac_sha256(
          key, bytes_of("Test Using Larger Than Block-Size Key - Hash Key "
                        "First"))),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, VerifyAcceptsCorrectTag) {
  const Bytes key = bytes_of("k");
  const Bytes msg = bytes_of("m");
  const Digest tag = hmac_sha256(key, msg);
  EXPECT_TRUE(verify_mac(key, msg, ByteView(tag.data(), tag.size())));
}

TEST(Hmac, VerifyRejectsTamperedTagAndMessage) {
  const Bytes key = bytes_of("k");
  const Bytes msg = bytes_of("m");
  Digest tag = hmac_sha256(key, msg);
  tag[0] ^= 1;
  EXPECT_FALSE(verify_mac(key, msg, ByteView(tag.data(), tag.size())));
  tag[0] ^= 1;
  EXPECT_FALSE(
      verify_mac(key, bytes_of("m2"), ByteView(tag.data(), tag.size())));
}

TEST(Hmac, KeySensitivity) {
  const Bytes msg = bytes_of("same message");
  EXPECT_NE(hmac_sha256(bytes_of("key1"), msg),
            hmac_sha256(bytes_of("key2"), msg));
}

// ------------------------------------------------------------------- PRF

TEST(Prf, DomainsAreIndependent) {
  const Bytes input = bytes_of("key-material");
  std::set<std::string> images;
  for (auto domain :
       {PrfDomain::kChainStep, PrfDomain::kHighChainStep,
        PrfDomain::kLowChainStep, PrfDomain::kLevelConnect,
        PrfDomain::kMacKey, PrfDomain::kCdmImage,
        PrfDomain::kReceiverLocal}) {
    images.insert(hex_digest(prf(domain, input)));
  }
  EXPECT_EQ(images.size(), 7u);  // all distinct
}

TEST(Prf, Deterministic) {
  const Bytes input = bytes_of("x");
  EXPECT_EQ(prf(PrfDomain::kChainStep, input),
            prf(PrfDomain::kChainStep, input));
}

TEST(Prf, TruncationIsPrefix) {
  const Bytes input = bytes_of("x");
  const Bytes full = prf_bytes(PrfDomain::kChainStep, input, 32);
  const Bytes ten = prf_bytes(PrfDomain::kChainStep, input, 10);
  EXPECT_EQ(ten, Bytes(full.begin(), full.begin() + 10));
}

TEST(Prf, RejectsBadOutputLength) {
  EXPECT_THROW(prf_bytes(PrfDomain::kChainStep, bytes_of("x"), 0),
               std::invalid_argument);
  EXPECT_THROW(prf_bytes(PrfDomain::kChainStep, bytes_of("x"), 33),
               std::invalid_argument);
}

TEST(Prf, DomainLabelsUnique) {
  std::set<std::string_view> labels;
  for (auto domain :
       {PrfDomain::kChainStep, PrfDomain::kHighChainStep,
        PrfDomain::kLowChainStep, PrfDomain::kLevelConnect,
        PrfDomain::kMacKey, PrfDomain::kCdmImage,
        PrfDomain::kReceiverLocal}) {
    labels.insert(domain_label(domain));
  }
  EXPECT_EQ(labels.size(), 7u);
}

// -------------------------------------------------------------- KeyChain

TEST(KeyChain, ChainRelationHolds) {
  const KeyChain chain(bytes_of("seed"), 16);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(chain_walk(PrfDomain::kChainStep, chain.key(i + 1), 1,
                         chain.key_size()),
              chain.key(i))
        << "index " << i;
  }
}

TEST(KeyChain, KeysAreDistinct) {
  const KeyChain chain(bytes_of("seed"), 32);
  std::set<std::string> seen;
  for (std::size_t i = 0; i <= 32; ++i) {
    seen.insert(to_hex(chain.key(i)));
  }
  EXPECT_EQ(seen.size(), 33u);
}

TEST(KeyChain, KeySizeRespected) {
  const KeyChain chain(bytes_of("seed"), 4, PrfDomain::kChainStep, 10);
  EXPECT_EQ(chain.key(0).size(), 10u);
  EXPECT_EQ(chain.key_size(), 10u);
}

TEST(KeyChain, VerifyKeyAcceptsAuthenticRejectsForged) {
  // Weak authentication of K_10: walking it down reaches every older
  // authentic anchor; a forged K_10 reaches none.
  const KeyChain chain(bytes_of("seed"), 16);
  const auto walk = [&](const Bytes& key, std::size_t steps) {
    return chain_walk(PrfDomain::kChainStep, key, steps, chain.key_size());
  };
  EXPECT_EQ(walk(chain.key(10), 10), chain.commitment());
  EXPECT_EQ(walk(chain.key(10), 3), chain.key(7));
  Bytes forged = chain.key(10);
  forged[0] ^= 1;
  EXPECT_NE(walk(forged, 10), chain.commitment());
  EXPECT_NE(walk(forged, 3), chain.key(7));
}

TEST(KeyChain, MacKeyDiffersFromChainKey) {
  const KeyChain chain(bytes_of("seed"), 4);
  EXPECT_NE(chain.mac_key(2), chain.key(2));
}

TEST(KeyChain, RejectsBadConstruction) {
  EXPECT_THROW(KeyChain(bytes_of("s"), 0), std::invalid_argument);
  EXPECT_THROW(KeyChain({}, 4), std::invalid_argument);
  EXPECT_THROW(KeyChain(bytes_of("s"), 4, PrfDomain::kChainStep, 0),
               std::invalid_argument);
  EXPECT_THROW(KeyChain(bytes_of("s"), 4, PrfDomain::kChainStep, 64),
               std::invalid_argument);
}

TEST(KeyChain, OutOfRangeIndexThrows) {
  const KeyChain chain(bytes_of("seed"), 4);
  EXPECT_THROW((void)chain.key(6), std::out_of_range);
}

TEST(KeyChain, ChainWalkMatchesChain) {
  const KeyChain chain(bytes_of("seed"), 12);
  const Bytes walked = chain_walk(PrfDomain::kChainStep, chain.key(12), 12,
                                  chain.key_size());
  EXPECT_EQ(walked, chain.commitment());
}

TEST(KeyChain, DifferentSeedsDifferentChains) {
  const KeyChain a(bytes_of("seed-a"), 4);
  const KeyChain b(bytes_of("seed-b"), 4);
  EXPECT_NE(a.commitment(), b.commitment());
}

// ------------------------------------------------------ TwoLevelKeyChain

class TwoLevelTest : public ::testing::TestWithParam<LevelLink> {};

TEST_P(TwoLevelTest, HighChainRelationHolds) {
  const TwoLevelKeyChain chain(bytes_of("seed"), 6, 4, GetParam());
  for (std::size_t i = 1; i <= chain.high_length(); ++i) {
    EXPECT_EQ(chain_walk(PrfDomain::kHighChainStep, chain.high_key(i), 1,
                         chain.key_size()),
              chain.high_key(i - 1));
  }
}

TEST_P(TwoLevelTest, LowChainRelationHolds) {
  const TwoLevelKeyChain chain(bytes_of("seed"), 4, 5, GetParam());
  for (std::size_t i = 1; i <= 4; ++i) {
    for (std::size_t j = 1; j <= 5; ++j) {
      EXPECT_EQ(chain_walk(PrfDomain::kLowChainStep, chain.low_key(i, j), 1,
                           chain.key_size()),
                chain.low_key(i, j - 1));
    }
  }
}

TEST_P(TwoLevelTest, DeriveLowKeyRecoversChain) {
  const TwoLevelKeyChain chain(bytes_of("seed"), 5, 6, GetParam());
  for (std::size_t i = 1; i <= 5; ++i) {
    for (std::size_t j = 0; j <= 6; ++j) {
      EXPECT_EQ(derive_low_key(chain.low_anchor(i), i, j, 6,
                               chain.key_size()),
                chain.low_key(i, j))
          << "interval " << i << " index " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Links, TwoLevelTest,
                         ::testing::Values(LevelLink::kOriginal,
                                           LevelLink::kEftp));

TEST(TwoLevelKeyChain, AnchorSelectionByLinkMode) {
  const TwoLevelKeyChain original(bytes_of("s"), 4, 3, LevelLink::kOriginal);
  const TwoLevelKeyChain eftp(bytes_of("s"), 4, 3, LevelLink::kEftp);
  EXPECT_EQ(original.low_anchor(2), original.high_key(3));
  EXPECT_EQ(eftp.low_anchor(2), eftp.high_key(2));
}

TEST(TwoLevelKeyChain, EftpIntervalsHaveDistinctChains) {
  // Under kEftp two consecutive intervals must not share a chain even
  // though their anchors are consecutive keys of the same high chain.
  const TwoLevelKeyChain chain(bytes_of("s"), 4, 3, LevelLink::kEftp);
  EXPECT_NE(chain.low_key(1, 0), chain.low_key(2, 0));
}

TEST(TwoLevelKeyChain, RejectsZeroLengths) {
  EXPECT_THROW(TwoLevelKeyChain(bytes_of("s"), 0, 3, LevelLink::kOriginal),
               std::invalid_argument);
  EXPECT_THROW(TwoLevelKeyChain(bytes_of("s"), 3, 0, LevelLink::kOriginal),
               std::invalid_argument);
}

// -------------------------------------------------------------- MAC/μMAC

TEST(Mac, SizesMatchPaper) {
  EXPECT_EQ(kMacSize, 10u);        // 80 bits
  EXPECT_EQ(kMicroMacSize, 3u);    // 24 bits
  EXPECT_EQ(dap_record_bits(), 56u);
  EXPECT_EQ(full_record_bits(), 280u);
}

TEST(Mac, ComputeAndVerify) {
  const Bytes key = bytes_of("key");
  const Bytes msg = bytes_of("message");
  const auto tag = compute_mac(key, msg);
  EXPECT_EQ(tag.size(), kMacSize);
  EXPECT_TRUE(verify_mac(key, msg, tag));
  EXPECT_FALSE(verify_mac(key, bytes_of("other"), tag));
  EXPECT_FALSE(verify_mac(bytes_of("wrong"), msg, tag));
}

TEST(Mac, VerifyRejectsEmptyAndOversizedTags) {
  EXPECT_FALSE(verify_mac(bytes_of("k"), bytes_of("m"), Bytes{}));
  EXPECT_FALSE(verify_mac(bytes_of("k"), bytes_of("m"), Bytes(40, 0)));
}

TEST(Mac, MicroMacIsDeterministicPerReceiver) {
  const auto mac = compute_mac(bytes_of("k"), bytes_of("m"));
  const Bytes recv_a = bytes_of("receiver-a");
  const Bytes recv_b = bytes_of("receiver-b");
  EXPECT_EQ(micro_mac(recv_a, mac), micro_mac(recv_a, mac));
  EXPECT_NE(micro_mac(recv_a, mac), micro_mac(recv_b, mac));
  EXPECT_EQ(micro_mac(recv_a, mac).size(), kMicroMacSize);
}

TEST(Mac, TruncationBoundsEnforced) {
  EXPECT_THROW(compute_mac(bytes_of("k"), bytes_of("m"), 0),
               std::invalid_argument);
  EXPECT_THROW(compute_mac(bytes_of("k"), bytes_of("m"), 33),
               std::invalid_argument);
}

// ------------------------------------------------------------------ WOTS

class WotsTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(WotsTest, SignVerifyRoundTrip) {
  WotsKeyPair kp(bytes_of("wots-seed"), GetParam());
  const Bytes msg = bytes_of("broadcast commitment");
  const WotsSignature sig = kp.sign(msg);
  EXPECT_TRUE(wots_verify(kp.public_key(), msg, sig, GetParam()));
}

TEST_P(WotsTest, RejectsWrongMessage) {
  WotsKeyPair kp(bytes_of("wots-seed"), GetParam());
  const WotsSignature sig = kp.sign(bytes_of("m1"));
  EXPECT_FALSE(wots_verify(kp.public_key(), bytes_of("m2"), sig, GetParam()));
}

TEST_P(WotsTest, RejectsTamperedSignature) {
  WotsKeyPair kp(bytes_of("wots-seed"), GetParam());
  WotsSignature sig = kp.sign(bytes_of("m"));
  sig.chains[0][0] ^= 1;
  EXPECT_FALSE(wots_verify(kp.public_key(), bytes_of("m"), sig, GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Widths, WotsTest, ::testing::Values(1u, 2u, 4u, 8u));

TEST(Wots, RejectsWrongPublicKey) {
  WotsKeyPair a(bytes_of("seed-a"));
  WotsKeyPair b(bytes_of("seed-b"));
  const WotsSignature sig = a.sign(bytes_of("m"));
  EXPECT_FALSE(wots_verify(b.public_key(), bytes_of("m"), sig));
}

TEST(Wots, OneTimePropertyEnforced) {
  WotsKeyPair kp(bytes_of("seed"));
  (void)kp.sign(bytes_of("first"));
  EXPECT_NO_THROW(kp.sign(bytes_of("first")));  // same message ok
  EXPECT_THROW(kp.sign(bytes_of("second")), std::logic_error);
}

TEST(Wots, ChainAdvanceAttackFails) {
  // An attacker may advance any signature chain (apply the public hash),
  // but the checksum chains make the result verify false.
  WotsKeyPair kp(bytes_of("seed"));
  WotsSignature sig = kp.sign(bytes_of("m"));
  // Advance chain 0 by one hash step, as a forger could.
  sig.chains[0] = sha256_bytes(sig.chains[0]);
  EXPECT_FALSE(wots_verify(kp.public_key(), bytes_of("m"), sig));
}

TEST(Wots, MalformedSignatureShapesVerifyFalse) {
  WotsKeyPair kp(bytes_of("seed"));
  WotsSignature sig = kp.sign(bytes_of("m"));
  WotsSignature short_sig = sig;
  short_sig.chains.pop_back();
  EXPECT_FALSE(wots_verify(kp.public_key(), bytes_of("m"), short_sig));
  WotsSignature bad_width = sig;
  bad_width.chains[0].resize(16);
  EXPECT_FALSE(wots_verify(kp.public_key(), bytes_of("m"), bad_width));
  EXPECT_FALSE(wots_verify(kp.public_key(), bytes_of("m"), sig, 3));
}

TEST(Wots, ChainCountMatchesParameter) {
  // 4-bit Winternitz: 64 message digits + 3 checksum digits.
  EXPECT_EQ(wots_chain_count(4), 67u);
  // 8-bit: 32 message digits + 2 checksum digits.
  EXPECT_EQ(wots_chain_count(8), 34u);
  EXPECT_THROW(wots_chain_count(3), std::invalid_argument);
}

TEST(Wots, RejectsBadConstruction) {
  EXPECT_THROW(WotsKeyPair({}, 4), std::invalid_argument);
  EXPECT_THROW(WotsKeyPair(bytes_of("s"), 5), std::invalid_argument);
}

}  // namespace
}  // namespace dap::crypto

// ---------------------------------------------------------------- Merkle

namespace dap::crypto {
namespace {

TEST(Merkle, SignVerifyManyMessages) {
  MerkleSigner signer(common::bytes_of("tree-seed"), 3);  // 8 leaves
  EXPECT_EQ(signer.capacity(), 8u);
  for (int i = 0; i < 8; ++i) {
    const common::Bytes msg =
        common::bytes_of("anchor #" + std::to_string(i));
    const MerkleSignature sig = signer.sign(msg);
    EXPECT_EQ(sig.leaf_index, static_cast<std::uint32_t>(i));
    EXPECT_TRUE(merkle_verify(signer.root(), msg, sig, 3)) << "leaf " << i;
  }
  EXPECT_EQ(signer.signatures_used(), 8u);
}

TEST(Merkle, ExhaustionThrows) {
  MerkleSigner signer(common::bytes_of("seed"), 1);  // 2 leaves
  (void)signer.sign(common::bytes_of("a"));
  (void)signer.sign(common::bytes_of("b"));
  EXPECT_THROW(signer.sign(common::bytes_of("c")), std::runtime_error);
}

TEST(Merkle, RejectsWrongMessageOrRoot) {
  MerkleSigner signer(common::bytes_of("seed"), 2);
  const auto sig = signer.sign(common::bytes_of("real"));
  EXPECT_FALSE(merkle_verify(signer.root(), common::bytes_of("fake"), sig, 2));
  MerkleSigner other(common::bytes_of("other"), 2);
  EXPECT_FALSE(merkle_verify(other.root(), common::bytes_of("real"), sig, 2));
}

TEST(Merkle, RejectsTamperedPathAndIndex) {
  MerkleSigner signer(common::bytes_of("seed"), 3);
  auto sig = signer.sign(common::bytes_of("m"));
  auto bad_path = sig;
  bad_path.auth_path[1][0] ^= 1;
  EXPECT_FALSE(merkle_verify(signer.root(), common::bytes_of("m"), bad_path, 3));
  auto bad_index = sig;
  bad_index.leaf_index = 5;  // wrong position: path no longer matches
  EXPECT_FALSE(
      merkle_verify(signer.root(), common::bytes_of("m"), bad_index, 3));
  auto short_path = sig;
  short_path.auth_path.pop_back();
  EXPECT_FALSE(
      merkle_verify(signer.root(), common::bytes_of("m"), short_path, 3));
  EXPECT_FALSE(merkle_verify(signer.root(), common::bytes_of("m"), sig, 4));
}

TEST(Merkle, LeafIndexOutOfRangeRejected) {
  MerkleSigner signer(common::bytes_of("seed"), 2);
  auto sig = signer.sign(common::bytes_of("m"));
  sig.leaf_index = 4;  // beyond 2^2 leaves
  EXPECT_FALSE(merkle_verify(signer.root(), common::bytes_of("m"), sig, 2));
}

TEST(Merkle, RejectsBadConstruction) {
  EXPECT_THROW(MerkleSigner(common::bytes_of("s"), 0), std::invalid_argument);
  EXPECT_THROW(MerkleSigner(common::bytes_of("s"), 17), std::invalid_argument);
  EXPECT_THROW(MerkleSigner({}, 3), std::invalid_argument);
}

TEST(Merkle, WotsRecoverMatchesPublicKey) {
  WotsKeyPair kp(common::bytes_of("seed"));
  const auto sig = kp.sign(common::bytes_of("m"));
  EXPECT_EQ(wots_recover_public_key(common::bytes_of("m"), sig),
            kp.public_key());
  EXPECT_NE(wots_recover_public_key(common::bytes_of("x"), sig),
            kp.public_key());
  EXPECT_TRUE(wots_recover_public_key(common::bytes_of("m"), sig, 7).empty());
}

TEST(Merkle, DistinctLeavesDistinctKeys) {
  MerkleSigner signer(common::bytes_of("seed"), 2);
  const auto a = signer.sign(common::bytes_of("same message"));
  const auto b = signer.sign(common::bytes_of("same message"));
  EXPECT_NE(a.leaf_index, b.leaf_index);
  EXPECT_NE(a.wots.chains[0], b.wots.chains[0]);
  // Both verify against the same root.
  EXPECT_TRUE(
      merkle_verify(signer.root(), common::bytes_of("same message"), a, 2));
  EXPECT_TRUE(
      merkle_verify(signer.root(), common::bytes_of("same message"), b, 2));
}

}  // namespace
}  // namespace dap::crypto
