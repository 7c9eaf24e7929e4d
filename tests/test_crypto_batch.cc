// Exact-equality tests for the SHA-256 backends: the 8-lane kernel must
// match the scalar oracle on arbitrary per-lane states, the streaming
// Sha256 must match the portable C kernel under every forced backend (the
// SHA-NI kernel included), HmacKey must reproduce hmac_sha256 (RFC 4231
// vectors included), prf_walk_many, chain_walk and KeyChain must
// reproduce iterated prf_bytes step by step, and
// ChainAuthenticator::accept_many must reproduce sequential accept()
// outcomes exactly — counters, checkpoints, and anchors included.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "common/rng.h"
#include "crypto/hmac.h"
#include "crypto/keychain.h"
#include "crypto/mac.h"
#include "crypto/prf.h"
#include "crypto/sha256.h"
#include "crypto/sha256_batch.h"
#include "obs/registry.h"
#include "tesla/chain_auth.h"

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

// Restores auto-detection when a test forces a backend.
struct BackendGuard {
  ~BackendGuard() { clear_sha256_backend_override(); }
};

// The portable C kernel alone, padding included: no Sha256 object, no
// dispatch. Every backend's streaming digests must match it.
Digest oracle_sha256(ByteView msg) {
  Bytes padded(msg.begin(), msg.end());
  padded.push_back(0x80);
  while (padded.size() % kSha256BlockSize != 56) padded.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(msg.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
  Sha256Midstate ms = sha256_initial_midstate();
  for (std::size_t off = 0; off < padded.size(); off += kSha256BlockSize) {
    sha256_compress(ms.state.data(), padded.data() + off);
  }
  Digest out;
  for (std::size_t v = 0; v < 8; ++v) {
    for (std::size_t b = 0; b < 4; ++b) {
      out[4 * v + b] = static_cast<std::uint8_t>(ms.state[v] >> (24 - 8 * b));
    }
  }
  return out;
}

// ------------------------------------------------------ midstate plumbing

TEST(Sha256Midstate, CaptureRestoreRoundTrip) {
  const BackendGuard guard;
  const Bytes suffix = bytes_of("suffix data");
  for (const Sha256Backend backend : supported_sha256_backends()) {
    force_sha256_backend(backend);
    // One- and three-block prefixes: the latter reaches the streaming
    // kernel as a single multi-block run.
    for (const std::size_t blocks : {1u, 3u}) {
      const Bytes prefix(blocks * kSha256BlockSize, 'p');
      Sha256 a;
      a.update(prefix);
      const Sha256Midstate ms = a.midstate();
      EXPECT_EQ(ms.bytes, prefix.size());

      Sha256 b;
      b.restore(ms);
      b.update(suffix);

      Bytes whole(prefix);
      whole.insert(whole.end(), suffix.begin(), suffix.end());
      EXPECT_EQ(b.finalize(), oracle_sha256(whole))
          << backend_name(backend) << " prefix blocks " << blocks;
    }
  }
}

TEST(Sha256Midstate, InitialMidstateIsEmptyHashState) {
  Sha256 h;
  h.restore(sha256_initial_midstate());
  EXPECT_EQ(hex_digest(h.finalize()),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

// ------------------------------------------------------- backend plumbing

TEST(Sha256Batch, BackendNamesAndLanes) {
  EXPECT_EQ(backend_name(Sha256Backend::kScalar), "scalar");
  EXPECT_EQ(backend_name(Sha256Backend::kAvx2), "avx2");
  EXPECT_EQ(backend_name(Sha256Backend::kShaNi), "shani");
}

TEST(Sha256Batch, ForceClampsToSupported) {
  const BackendGuard guard;
  force_sha256_backend(Sha256Backend::kAvx2);
  EXPECT_LE(static_cast<int>(active_sha256_backend()),
            static_cast<int>(best_supported_sha256_backend()));
  force_sha256_backend(Sha256Backend::kScalar);
  EXPECT_EQ(active_sha256_backend(), Sha256Backend::kScalar);
}

TEST(Sha256Batch, SupportedListIsOrderedAndForceable) {
  const BackendGuard guard;
  const std::vector<Sha256Backend> all = supported_sha256_backends();
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(all.front(), Sha256Backend::kScalar);
  EXPECT_EQ(all.back(), best_supported_sha256_backend());
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(all[i - 1], all[i]);
    }
    force_sha256_backend(all[i]);
    EXPECT_EQ(active_sha256_backend(), all[i]) << backend_name(all[i]);
  }
}

// ------------------------------------------------ streaming-path dispatch

TEST(Sha256Stream, ScalarForceRoutesStreamingThroughCKernel) {
  const BackendGuard guard;
  for (const Sha256Backend backend :
       {Sha256Backend::kScalar, Sha256Backend::kAvx2}) {
    force_sha256_backend(backend);
    EXPECT_EQ(streaming_sha256_backend(), Sha256Backend::kScalar)
        << backend_name(backend);
  }
  force_sha256_backend(Sha256Backend::kShaNi);
  EXPECT_EQ(streaming_sha256_backend(),
            active_sha256_backend() == Sha256Backend::kShaNi
                ? Sha256Backend::kShaNi
                : Sha256Backend::kScalar);
}

TEST(Sha256Stream, EveryLengthMatchesCOracleOnEveryBackend) {
  const BackendGuard guard;
  common::Rng rng(0xF1A7);
  // 0..200 covers the empty message, the 55/56 one-vs-two padding-block
  // split, the 63/64 block edge and three-block messages with every tail.
  std::vector<Bytes> msgs;
  for (std::size_t len = 0; len <= 200; ++len) msgs.push_back(rng.bytes(len));
  std::vector<ByteView> views(msgs.begin(), msgs.end());
  std::vector<Digest> expect(msgs.size());
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    expect[i] = oracle_sha256(views[i]);
  }

  for (const Sha256Backend backend : supported_sha256_backends()) {
    force_sha256_backend(backend);
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      EXPECT_EQ(sha256(views[i]), expect[i])
          << backend_name(backend) << " length " << i;
    }
  }
}

TEST(Sha256Stream, CompressBlocksMatchesCKernelOnRandomBlocks) {
  const BackendGuard guard;
  common::Rng rng(0x5A41);
  for (const Sha256Backend backend : supported_sha256_backends()) {
    force_sha256_backend(backend);
    // 10k random (state, block) pairs, one block per call.
    for (int trial = 0; trial < 10000; ++trial) {
      std::array<std::uint32_t, 8> got;
      for (std::uint32_t& w : got) {
        w = static_cast<std::uint32_t>(rng.next_u64());
      }
      std::array<std::uint32_t, 8> expect = got;
      const Bytes block = rng.bytes(kSha256BlockSize);
      sha256_compress_blocks(got.data(), block.data(), 1);
      sha256_compress(expect.data(), block.data());
      ASSERT_EQ(got, expect) << backend_name(backend) << " trial " << trial;
    }
    // Multi-block runs: one call over n blocks == n C compressions.
    for (std::size_t n = 0; n <= 9; ++n) {
      const Bytes data = rng.bytes(n * kSha256BlockSize);
      std::array<std::uint32_t, 8> got = sha256_initial_midstate().state;
      std::array<std::uint32_t, 8> expect = got;
      sha256_compress_blocks(got.data(), data.data(), n);
      for (std::size_t b = 0; b < n; ++b) {
        sha256_compress(expect.data(), data.data() + kSha256BlockSize * b);
      }
      EXPECT_EQ(got, expect) << backend_name(backend) << " run of " << n;
    }
  }
}

TEST(Sha256Stream, Fips180AndRfc4231VectorsOnEveryBackend) {
  const BackendGuard guard;
  for (const Sha256Backend backend : supported_sha256_backends()) {
    force_sha256_backend(backend);
    const std::string name(backend_name(backend));
    EXPECT_EQ(hex_digest(sha256({})),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
        << name;
    EXPECT_EQ(hex_digest(sha256(bytes_of("abc"))),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
        << name;
    EXPECT_EQ(hex_digest(sha256(bytes_of(
                  "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1")
        << name;
    Sha256 million;
    const Bytes chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i) million.update(chunk);
    EXPECT_EQ(hex_digest(million.finalize()),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0")
        << name;

    EXPECT_EQ(hex_digest(hmac_sha256(Bytes(20, 0x0b), bytes_of("Hi There"))),
              "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7")
        << name;
    EXPECT_EQ(hex_digest(hmac_sha256(bytes_of("Jefe"),
                                     bytes_of("what do ya want for nothing?"))),
              "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843")
        << name;
    EXPECT_EQ(hex_digest(hmac_sha256(Bytes(20, 0xaa), Bytes(50, 0xdd))),
              "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe")
        << name;
    const HmacKey oversized{ByteView(Bytes(131, 0xaa))};
    EXPECT_EQ(hex_digest(oversized.mac(bytes_of(
                  "Test Using Larger Than Block-Size Key - Hash Key First"))),
              "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54")
        << name;
  }
}

// ------------------------------------------------------------ lane kernel

TEST(Sha256Batch, LaneKernelMatchesCKernelOnRandomStates) {
  const BackendGuard guard;
  common::Rng rng(0x1A7E);
  for (const Sha256Backend backend : supported_sha256_backends()) {
    force_sha256_backend(backend);
    // 10k sets of 8 random (state, block) pairs. Every lane differs, so a
    // lane-transposed load or store in the kernel cannot go unnoticed;
    // the block pointers run backwards through memory for the same reason.
    for (int trial = 0; trial < 10000; ++trial) {
      std::array<std::uint32_t, 8 * kSha256Lanes> got;
      for (std::uint32_t& w : got) {
        w = static_cast<std::uint32_t>(rng.next_u64());
      }
      std::array<std::uint32_t, 8 * kSha256Lanes> expect = got;
      const Bytes data = rng.bytes(kSha256Lanes * kSha256BlockSize);
      std::array<const std::uint8_t*, kSha256Lanes> lane_blocks;
      for (std::size_t l = 0; l < kSha256Lanes; ++l) {
        lane_blocks[l] =
            data.data() + kSha256BlockSize * (kSha256Lanes - 1 - l);
      }
      sha256_compress_lanes(got, lane_blocks);
      for (std::size_t l = 0; l < kSha256Lanes; ++l) {
        sha256_compress(expect.data() + 8 * l, lane_blocks[l]);
      }
      ASSERT_EQ(got, expect) << backend_name(backend) << " trial " << trial;
    }
  }
}

// ------------------------------------------------------- HmacKey midstate

TEST(HmacKey, MatchesHmacSha256) {
  common::Rng rng(0xAB);
  for (const std::size_t key_len : {0u, 1u, 10u, 32u, 64u, 65u, 131u}) {
    const Bytes key = rng.bytes(key_len);
    const HmacKey cached{ByteView(key)};
    for (const std::size_t msg_len : {0u, 1u, 55u, 56u, 64u, 100u, 1000u}) {
      const Bytes msg = rng.bytes(msg_len);
      EXPECT_EQ(cached.mac(msg), hmac_sha256(key, msg))
          << "key " << key_len << " msg " << msg_len;
    }
  }
}

TEST(HmacKey, Rfc4231Vectors) {
  // Case 1: 20-byte 0x0b key.
  const HmacKey k1{ByteView(Bytes(20, 0x0b))};
  EXPECT_EQ(hex_digest(k1.mac(bytes_of("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  // Case 2: short ASCII key.
  const Bytes jefe = bytes_of("Jefe");
  const HmacKey k2{ByteView(jefe)};
  EXPECT_EQ(
      hex_digest(k2.mac(bytes_of("what do ya want for nothing?"))),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  // Case 6: 131-byte key exercises the hash-then-pad path.
  const HmacKey k6{ByteView(Bytes(131, 0xaa))};
  EXPECT_EQ(hex_digest(k6.mac(bytes_of(
                "Test Using Larger Than Block-Size Key - Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacKey, VerifiesAndCountsMidstateHits) {
  obs::Registry& reg = obs::Registry::global();
  const auto hits = reg.counter("crypto.hmac_midstate_hits");
  const std::uint64_t before = reg.value(hits);

  const Bytes key = bytes_of("k");
  const Bytes msg = bytes_of("m");
  const HmacKey cached{ByteView(key)};
  const Digest tag = cached.mac(msg);
  EXPECT_EQ(tag, hmac_sha256(key, msg));
  EXPECT_NE(cached.mac(bytes_of("not m")), tag);
  EXPECT_GT(reg.value(hits), before);
}

TEST(HmacKey, MacHelpersMatchByteViewOverloads) {
  const Bytes key = bytes_of("interval-key");
  const Bytes msg = bytes_of("announce");
  const HmacKey cached{ByteView(key)};
  EXPECT_EQ(compute_mac(cached, msg), compute_mac(key, msg));
  EXPECT_NE(compute_mac(cached, msg), compute_mac(key, bytes_of("x")));
}

TEST(PrfKey, CachedDomainKeysMatchPrf) {
  common::Rng rng(0xD0);
  const Bytes input = rng.bytes(10);
  for (std::uint8_t d = 0; d < 7; ++d) {
    const auto domain = static_cast<PrfDomain>(d);
    EXPECT_EQ(prf_key(domain).mac(input), prf(domain, input))
        << domain_label(domain);
  }
}

// --------------------------------------------------------- prf_walk_many

// Values 0..n of the walk from `start` by iterated prf_bytes: the
// oracle every chain walk is checked against.
std::vector<Bytes> iterated_prf(PrfDomain domain, const Bytes& start,
                                std::size_t n) {
  std::vector<Bytes> values{start};
  for (std::size_t s = 0; s < n; ++s) {
    values.push_back(prf_bytes(domain, values.back(), start.size()));
  }
  return values;
}

TEST(Sha256Batch, PrfWalkManyMatchesChainWalk) {
  // prf_walk_many, chain_walk's end and a KeyChain over the same starts
  // all equal iterated prf_bytes, on every backend, key size and chain
  // step domain.
  const BackendGuard guard;
  common::Rng rng(0x99);
  obs::Registry& reg = obs::Registry::global();
  const auto blocks = reg.counter("crypto.batch.blocks");
  const auto walk_steps = reg.counter("crypto.chain_walk_steps");
  // 20 walks, 17 of them non-empty with uneven gaps: more than two full
  // lane loads, so the 8-lane lockstep loop refills lanes mid-batch.
  const std::vector<std::uint32_t> uneven = {
      1, 7, 0, 64, 3, 31, 2, 100, 5, 9, 0, 17, 1, 40, 12, 4, 23, 6, 0, 2};
  const std::vector<std::vector<std::uint32_t>> batches = {
      uneven, {0, 0, 0}, {}};
  for (const PrfDomain domain : {PrfDomain::kChainStep,
                                 PrfDomain::kHighChainStep,
                                 PrfDomain::kLowChainStep}) {
    for (const std::size_t key_size : {1u, 10u, 16u, 32u}) {
      for (const std::vector<std::uint32_t>& steps : batches) {
        std::vector<Bytes> starts;
        std::uint64_t total = 0;
        for (const std::uint32_t s : steps) {
          starts.push_back(rng.bytes(key_size));
          total += s;
        }
        // Oracle walks on the portable C kernel, one step further than
        // the longest of the three walks below needs: a KeyChain of
        // length L seeded with `start` holds values 1..L + 1.
        force_sha256_backend(Sha256Backend::kScalar);
        std::vector<std::vector<Bytes>> expect;
        for (std::size_t i = 0; i < starts.size(); ++i) {
          expect.push_back(iterated_prf(domain, starts[i],
                                        std::max<std::size_t>(steps[i], 1) + 1));
        }
        for (const Sha256Backend backend : supported_sha256_backends()) {
          force_sha256_backend(backend);
          const std::string where =
              std::string(domain_label(domain)) + " " +
              std::string(backend_name(backend)) + " key_size " +
              std::to_string(key_size) + " walks " +
              std::to_string(steps.size());
          const std::uint64_t blocks_before = reg.value(blocks);
          const std::uint64_t steps_before = reg.value(walk_steps);
          std::vector<Bytes> traj;
          prf_walk_many(domain, starts, steps, key_size, traj);
          // Two compressions per step, counted alike on every backend.
          EXPECT_EQ(reg.value(walk_steps) - steps_before, total) << where;
          EXPECT_EQ(reg.value(blocks) - blocks_before, 2 * total) << where;
          ASSERT_EQ(traj.size(), starts.size()) << where;
          for (std::size_t i = 0; i < starts.size(); ++i) {
            Bytes flat;
            for (std::uint32_t s = 1; s <= steps[i]; ++s) {
              flat.insert(flat.end(), expect[i][s].begin(),
                          expect[i][s].end());
            }
            EXPECT_EQ(traj[i], flat) << where << " walk " << i;
            EXPECT_EQ(chain_walk(domain, starts[i], steps[i], key_size),
                      expect[i][steps[i]])
                << where << " chain_walk " << i;
            const std::size_t length = std::max<std::size_t>(steps[i], 1);
            const KeyChain chain(starts[i], length, domain, key_size);
            for (std::size_t j = 0; j <= length; ++j) {
              EXPECT_EQ(chain.key(j), expect[i][length + 1 - j])
                  << where << " KeyChain " << i << " key " << j;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace dap::crypto

// ------------------------------------------------ batched chain accepts

namespace dap::tesla {
namespace {

using common::Bytes;
using common::ByteView;

struct BackendGuard {
  ~BackendGuard() { crypto::clear_sha256_backend_override(); }
};

// Drives a scalar (sequential accept) and a batched (accept_many)
// authenticator with the same reveal queue and requires identical
// externally observable state afterwards.
void expect_batch_equals_sequential(
    const crypto::KeyChain& chain,
    const std::vector<std::pair<std::uint32_t, Bytes>>& queue,
    std::uint32_t stride) {
  ChainAuthenticator seq(chain.step_domain(), chain.key_size(),
                         chain.commitment(), 0, stride);
  ChainAuthenticator batch(chain.step_domain(), chain.key_size(),
                           chain.commitment(), 0, stride);

  std::vector<bool> expect;
  expect.reserve(queue.size());
  for (const auto& [interval, key] : queue) {
    expect.push_back(seq.accept(interval, key));
  }

  std::vector<KeyReveal> reveals;
  reveals.reserve(queue.size());
  for (const auto& [interval, key] : queue) {
    reveals.push_back(KeyReveal{interval, ByteView(key)});
  }
  const std::vector<bool> got = batch.accept_many(reveals);

  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expect[i]) << "reveal " << i;
  }
  EXPECT_EQ(batch.anchor_index(), seq.anchor_index());
  EXPECT_EQ(batch.anchor_key(), seq.anchor_key());
  EXPECT_EQ(batch.accepted(), seq.accepted());
  EXPECT_EQ(batch.rejected(), seq.rejected());
  EXPECT_EQ(batch.cached_keys(), seq.cached_keys());
  for (std::uint32_t i = 0; i <= seq.anchor_index(); ++i) {
    EXPECT_EQ(batch.key(i), seq.key(i)) << "key " << i;
    EXPECT_EQ(batch.mac_key(i), seq.mac_key(i)) << "mac_key " << i;
  }
}

TEST(ChainAuthenticatorBatch, MatchesSequentialAcceptEveryBackend) {
  const BackendGuard guard;
  common::Rng rng(0xC4A);
  const crypto::KeyChain chain(rng.bytes(16), 96);

  std::vector<std::pair<std::uint32_t, Bytes>> queue;
  // In-order reveals, gaps, duplicates, a below-anchor reveal, an
  // out-of-order (stale) reveal, forged keys, and an empty key.
  queue.emplace_back(3, chain.key(3));
  queue.emplace_back(3, chain.key(3));            // duplicate (anchor hit)
  queue.emplace_back(17, chain.key(17));          // gap walk
  queue.emplace_back(9, chain.key(9));            // below-anchor re-derive
  queue.emplace_back(9, chain.key(10));           // below-anchor mismatch
  queue.emplace_back(40, chain.key(41));          // forged above-anchor
  queue.emplace_back(40, chain.key(40));
  queue.emplace_back(64, Bytes{});                // empty (uncounted)
  queue.emplace_back(90, chain.key(90));          // large gap
  queue.emplace_back(2, chain.key(2));            // pruned-era reveal

  for (const auto backend : crypto::supported_sha256_backends()) {
    crypto::force_sha256_backend(backend);
    for (const std::uint32_t stride : {1u, 4u, 16u}) {
      expect_batch_equals_sequential(chain, queue, stride);
    }
  }
}

TEST(ChainAuthenticatorBatch, AllForgedBatchRejectsEverything) {
  common::Rng rng(0xF0);
  const crypto::KeyChain chain(rng.bytes(16), 32);
  ChainAuthenticator auth(chain.step_domain(), chain.key_size(),
                          chain.commitment());
  std::vector<Bytes> forged;
  std::vector<KeyReveal> reveals;
  for (std::uint32_t i = 1; i <= 10; ++i) {
    forged.push_back(rng.bytes(chain.key_size()));
    reveals.push_back(KeyReveal{i, ByteView(forged.back())});
  }
  const std::vector<bool> got = auth.accept_many(reveals);
  for (const bool ok : got) EXPECT_FALSE(ok);
  EXPECT_EQ(auth.rejected(), 10u);
  EXPECT_EQ(auth.anchor_index(), 0u);
}

TEST(ChainAuthenticatorBatch, OddKeySizeIsRejectedWithoutAWalk) {
  // No key of the chain has another size, so both accept paths reject
  // such a candidate as inconsistent before walking it.
  common::Rng rng(0xF1);
  const crypto::KeyChain chain(rng.bytes(16), 16);
  const Bytes wrong_size = rng.bytes(chain.key_size() + 3);

  ChainAuthenticator one(chain.step_domain(), chain.key_size(),
                         chain.commitment());
  EXPECT_FALSE(one.accept(4, wrong_size));
  EXPECT_EQ(one.rejected(), 1u);
  EXPECT_EQ(one.walk_steps(), 0u);
  EXPECT_TRUE(one.accept(4, chain.key(4)));

  ChainAuthenticator many(chain.step_domain(), chain.key_size(),
                          chain.commitment());
  const std::vector<KeyReveal> odd{KeyReveal{4, ByteView(wrong_size)}};
  EXPECT_EQ(many.accept_many(odd), std::vector<bool>{false});
  EXPECT_EQ(many.rejected(), 1u);
  EXPECT_EQ(many.walk_steps(), 0u);
  const std::vector<KeyReveal> mixed{
      KeyReveal{4, ByteView(wrong_size)},
      KeyReveal{4, ByteView(chain.key(4))},
  };
  EXPECT_EQ(many.accept_many(mixed), (std::vector<bool>{false, true}));
  EXPECT_EQ(many.rejected(), 2u);
  EXPECT_EQ(many.walk_steps(), 4u);  // the authentic candidate's walk only
  EXPECT_EQ(many.anchor_index(), 4u);
  EXPECT_EQ(one.anchor_index(), 4u);
}

}  // namespace
}  // namespace dap::tesla
