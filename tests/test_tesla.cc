// Unit tests for the base TESLA protocol, the shared ChainAuthenticator,
// and the multi-buffer stores.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.h"
#include "crypto/mac.h"
#include "tesla/buffer.h"
#include "tesla/chain_auth.h"
#include "tesla/tesla.h"

namespace dap::tesla {
namespace {

using common::Bytes;
using common::bytes_of;
using common::Rng;

TeslaConfig test_config() {
  TeslaConfig config;
  config.sender_id = 1;
  config.chain_length = 32;
  config.disclosure_delay = 2;
  config.schedule = sim::IntervalSchedule(0, sim::kSecond);
  return config;
}

sim::SimTime mid(std::uint32_t interval) {
  return (interval - 1) * sim::kSecond + sim::kSecond / 2;
}

// ----------------------------------------------------- ChainAuthenticator

TEST(ChainAuthenticator, AcceptsChainedKeysInOrder) {
  const crypto::KeyChain chain(bytes_of("seed"), 8);
  ChainAuthenticator auth(crypto::PrfDomain::kChainStep, chain.key_size(),
                          chain.commitment());
  for (std::uint32_t i = 1; i <= 8; ++i) {
    EXPECT_TRUE(auth.accept(i, chain.key(i))) << "key " << i;
    EXPECT_EQ(auth.anchor_index(), i);
  }
  EXPECT_EQ(auth.accepted(), 8u);
  EXPECT_EQ(auth.rejected(), 0u);
}

TEST(ChainAuthenticator, AcceptsSkippedKeysAndFillsGaps) {
  const crypto::KeyChain chain(bytes_of("seed"), 8);
  ChainAuthenticator auth(crypto::PrfDomain::kChainStep, chain.key_size(),
                          chain.commitment());
  EXPECT_TRUE(auth.accept(5, chain.key(5)));
  // Intermediate keys were derived and cached.
  for (std::uint32_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(auth.key(i).has_value());
    EXPECT_EQ(*auth.key(i), chain.key(i));
  }
  EXPECT_FALSE(auth.key(6).has_value());
}

TEST(ChainAuthenticator, RejectsForgedKey) {
  const crypto::KeyChain chain(bytes_of("seed"), 8);
  ChainAuthenticator auth(crypto::PrfDomain::kChainStep, chain.key_size(),
                          chain.commitment());
  Bytes forged = chain.key(3);
  forged[0] ^= 0xff;
  EXPECT_FALSE(auth.accept(3, forged));
  EXPECT_EQ(auth.rejected(), 1u);
  EXPECT_EQ(auth.anchor_index(), 0u);
}

TEST(ChainAuthenticator, OldKeyConsistencyCheck) {
  const crypto::KeyChain chain(bytes_of("seed"), 8);
  ChainAuthenticator auth(crypto::PrfDomain::kChainStep, chain.key_size(),
                          chain.commitment());
  ASSERT_TRUE(auth.accept(4, chain.key(4)));
  EXPECT_TRUE(auth.accept(2, chain.key(2)));  // matches cache
  Bytes wrong = chain.key(2);
  wrong[1] ^= 1;
  EXPECT_FALSE(auth.accept(2, wrong));  // mismatch with cache
  // Proven-forged below-anchor reveals count as rejections, exactly
  // like above-anchor walk mismatches.
  EXPECT_EQ(auth.rejected(), 1u);
}

TEST(ChainAuthenticator, RejectionCounterCoversAllMismatchPaths) {
  const crypto::KeyChain chain(bytes_of("seed"), 8);
  ChainAuthenticator auth(crypto::PrfDomain::kChainStep, chain.key_size(),
                          chain.commitment());
  ASSERT_TRUE(auth.accept(6, chain.key(6)));
  Bytes wrong_anchor = chain.key(6);
  wrong_anchor[0] ^= 1;
  EXPECT_FALSE(auth.accept(6, wrong_anchor));  // anchor compare
  Bytes wrong_below = chain.key(3);
  wrong_below[0] ^= 1;
  EXPECT_FALSE(auth.accept(3, wrong_below));  // below-anchor derivation
  Bytes wrong_above = chain.key(8);
  wrong_above[0] ^= 1;
  EXPECT_FALSE(auth.accept(8, wrong_above));  // above-anchor walk
  EXPECT_EQ(auth.rejected(), 3u);
  // Unverifiable reveals are not rejections: empty keys are malformed,
  // pruned indices are a cache miss.
  auth.prune_below(5);
  EXPECT_FALSE(auth.accept(3, chain.key(3)));
  EXPECT_FALSE(auth.accept(7, Bytes{}));
  EXPECT_EQ(auth.rejected(), 3u);
}

TEST(ChainAuthenticator, RejectsEmptyKeyAndWrongDomain) {
  const crypto::KeyChain chain(bytes_of("seed"), 8);
  ChainAuthenticator auth(crypto::PrfDomain::kHighChainStep, chain.key_size(),
                          chain.commitment());
  EXPECT_FALSE(auth.accept(1, Bytes{}));
  // chain was built with kChainStep; the high-step domain cannot verify it.
  EXPECT_FALSE(auth.accept(1, chain.key(1)));
}

TEST(ChainAuthenticator, MacKeyOnlyForKnownKeys) {
  const crypto::KeyChain chain(bytes_of("seed"), 8);
  ChainAuthenticator auth(crypto::PrfDomain::kChainStep, chain.key_size(),
                          chain.commitment());
  EXPECT_FALSE(auth.mac_key(3).has_value());
  ASSERT_TRUE(auth.accept(3, chain.key(3)));
  ASSERT_TRUE(auth.mac_key(3).has_value());
  EXPECT_EQ(*auth.mac_key(3), chain.mac_key(3));
}

TEST(ChainAuthenticator, PruneKeepsAnchor) {
  const crypto::KeyChain chain(bytes_of("seed"), 8);
  ChainAuthenticator auth(crypto::PrfDomain::kChainStep, chain.key_size(),
                          chain.commitment());
  ASSERT_TRUE(auth.accept(6, chain.key(6)));
  auth.prune_below(5);
  EXPECT_FALSE(auth.key(2).has_value());
  EXPECT_TRUE(auth.key(5).has_value());
  EXPECT_TRUE(auth.key(6).has_value());
  // Still able to verify later keys against the anchor.
  EXPECT_TRUE(auth.accept(8, chain.key(8)));
}

TEST(ChainAuthenticator, RejectsBadConstruction) {
  EXPECT_THROW(ChainAuthenticator(crypto::PrfDomain::kChainStep, 10, Bytes{}),
               std::invalid_argument);
  EXPECT_THROW(ChainAuthenticator(crypto::PrfDomain::kChainStep, 0, Bytes{1}),
               std::invalid_argument);
}

// ------------------------------------------------ checkpointed chain cache

TEST(ChainAuthenticator, GapRevealWalksOncePerStep) {
  const crypto::KeyChain chain(bytes_of("seed"), 64);
  ChainAuthenticator auth(crypto::PrfDomain::kChainStep, chain.key_size(),
                          chain.commitment());
  ASSERT_TRUE(auth.accept(64, chain.key(64)));
  // Single downward pass: exactly gap hashes, not 2x gap.
  EXPECT_EQ(auth.walk_steps(), 64u);
}

TEST(ChainAuthenticator, CheckpointMemoryIsSparse) {
  const crypto::KeyChain chain(bytes_of("seed"), 64);
  ChainAuthenticator auth(crypto::PrfDomain::kChainStep, chain.key_size(),
                          chain.commitment());
  ASSERT_TRUE(auth.accept(64, chain.key(64)));
  // Anchor(0) + stride-16 checkpoints {16, 32, 48} + accepted top 64:
  // O(gap / stride) entries, not one per interval.
  EXPECT_EQ(auth.checkpoint_stride(),
            ChainAuthenticator::kDefaultCheckpointStride);
  EXPECT_LE(auth.cached_keys(), 64u / auth.checkpoint_stride() + 2);
}

TEST(ChainAuthenticator, BelowAnchorKeysDeriveFromNearestCheckpoint) {
  const crypto::KeyChain chain(bytes_of("seed"), 64);
  ChainAuthenticator auth(crypto::PrfDomain::kChainStep, chain.key_size(),
                          chain.commitment());
  ASSERT_TRUE(auth.accept(64, chain.key(64)));
  // Every interval in [1, 64] is still derivable despite the sparse
  // cache, and re-derivation costs at most `stride` extra hashes.
  for (const std::uint32_t i : {1u, 15u, 16u, 17u, 31u, 47u, 63u}) {
    const std::uint64_t before = auth.walk_steps();
    ASSERT_TRUE(auth.key(i).has_value()) << "key " << i;
    EXPECT_EQ(*auth.key(i), chain.key(i));
    // Two key() calls above; each walks <= stride - 1 steps.
    EXPECT_LE(auth.walk_steps() - before,
              2 * (auth.checkpoint_stride() - 1ull));
    EXPECT_TRUE(auth.accept(i, chain.key(i)));
  }
}

TEST(ChainAuthenticator, StrideOneCachesEveryKey) {
  const crypto::KeyChain chain(bytes_of("seed"), 16);
  ChainAuthenticator auth(crypto::PrfDomain::kChainStep, chain.key_size(),
                          chain.commitment(), 0, /*checkpoint_stride=*/1);
  ASSERT_TRUE(auth.accept(16, chain.key(16)));
  EXPECT_EQ(auth.cached_keys(), 17u);  // anchor + all 16 intermediates
  const std::uint64_t walked = auth.walk_steps();
  for (std::uint32_t i = 1; i <= 16; ++i) {
    ASSERT_TRUE(auth.key(i).has_value());
    EXPECT_EQ(*auth.key(i), chain.key(i));
  }
  EXPECT_EQ(auth.walk_steps(), walked);  // all exact cache hits
}

TEST(ChainAuthenticator, RebaseDropsHistoryKeepsAnchor) {
  const crypto::KeyChain chain(bytes_of("seed"), 64);
  ChainAuthenticator auth(crypto::PrfDomain::kChainStep, chain.key_size(),
                          chain.commitment());
  ASSERT_TRUE(auth.accept(40, chain.key(40)));
  auth.rebase_to_newest();
  EXPECT_EQ(auth.cached_keys(), 1u);
  EXPECT_FALSE(auth.key(39).has_value());
  EXPECT_FALSE(auth.accept(12, chain.key(12)));  // history gone
  EXPECT_TRUE(auth.accept(40, chain.key(40)));   // anchor still verifies
  EXPECT_TRUE(auth.accept(55, chain.key(55)));   // forward walk intact
}

TEST(ChainAuthenticator, PruneRaisesDerivabilityFloor) {
  const crypto::KeyChain chain(bytes_of("seed"), 64);
  ChainAuthenticator auth(crypto::PrfDomain::kChainStep, chain.key_size(),
                          chain.commitment());
  ASSERT_TRUE(auth.accept(48, chain.key(48)));
  auth.prune_below(33);
  EXPECT_FALSE(auth.key(32).has_value());
  EXPECT_FALSE(auth.accept(20, chain.key(20)));
  // In-range keys survive even where their checkpoint was pruned.
  for (const std::uint32_t i : {33u, 40u, 47u}) {
    ASSERT_TRUE(auth.key(i).has_value()) << "key " << i;
    EXPECT_EQ(*auth.key(i), chain.key(i));
  }
  EXPECT_TRUE(auth.accept(60, chain.key(60)));
}

// ----------------------------------------------------------- TESLA sender

TEST(TeslaSender, PacketCarriesMacAndDisclosure) {
  TeslaSender sender(test_config(), bytes_of("seed"));
  const auto p = sender.make_packet(5, bytes_of("msg"));
  EXPECT_EQ(p.interval, 5u);
  EXPECT_EQ(p.mac.size(), 10u);
  EXPECT_EQ(p.disclosed_interval, 3u);  // d = 2
  EXPECT_EQ(p.disclosed_key, sender.chain().key(3));
}

TEST(TeslaSender, EarlyIntervalsHaveNoDisclosure) {
  TeslaSender sender(test_config(), bytes_of("seed"));
  const auto p = sender.make_packet(2, bytes_of("msg"));
  EXPECT_EQ(p.disclosed_interval, 0u);
  EXPECT_TRUE(p.disclosed_key.empty());
}

TEST(TeslaSender, RejectsOutOfRangeInterval) {
  TeslaSender sender(test_config(), bytes_of("seed"));
  EXPECT_THROW(sender.make_packet(0, bytes_of("m")), std::out_of_range);
  EXPECT_THROW(sender.make_packet(33, bytes_of("m")), std::out_of_range);
}

TEST(TeslaSender, RejectsZeroDisclosureDelay) {
  TeslaConfig config = test_config();
  config.disclosure_delay = 0;
  EXPECT_THROW(TeslaSender(config, bytes_of("seed")), std::invalid_argument);
}

// -------------------------------------------------------------- bootstrap

TEST(TeslaBootstrap, SignatureVerifies) {
  TeslaSender sender(test_config(), bytes_of("seed"));
  const auto bootstrap = sender.bootstrap();
  EXPECT_TRUE(verify_bootstrap(bootstrap, bootstrap.signer_public_key));
}

TEST(TeslaBootstrap, TamperedCommitmentRejected) {
  TeslaSender sender(test_config(), bytes_of("seed"));
  auto bootstrap = sender.bootstrap();
  bootstrap.commitment[0] ^= 1;
  EXPECT_FALSE(verify_bootstrap(bootstrap, bootstrap.signer_public_key));
}

TEST(TeslaBootstrap, WrongPublicKeyRejected) {
  TeslaSender sender(test_config(), bytes_of("seed"));
  TeslaSender other(test_config(), bytes_of("other-seed"));
  const auto bootstrap = sender.bootstrap();
  EXPECT_FALSE(
      verify_bootstrap(bootstrap, other.bootstrap().signer_public_key));
}

TEST(TeslaBootstrap, GarbageSignatureRejected) {
  TeslaSender sender(test_config(), bytes_of("seed"));
  auto bootstrap = sender.bootstrap();
  bootstrap.signature = bytes_of("not a signature");
  EXPECT_FALSE(verify_bootstrap(bootstrap, bootstrap.signer_public_key));
}

// ------------------------------------------------------------- end-to-end

TEST(TeslaReceiver, AuthenticatesAfterDisclosure) {
  TeslaConfig config = test_config();
  TeslaSender sender(config, bytes_of("seed"));
  TeslaReceiver receiver(config, sender.chain().commitment(),
                         sim::LooseClock(0, 0));

  // Packet in interval 1, key disclosed by the packet of interval 3.
  auto released =
      receiver.receive(sender.make_packet(1, bytes_of("m1")), mid(1));
  EXPECT_TRUE(released.empty());

  released = receiver.receive(sender.make_packet(3, bytes_of("m3")), mid(3));
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0].interval, 1u);
  EXPECT_EQ(released[0].message, bytes_of("m1"));
  EXPECT_EQ(receiver.stats().macs_verified, 1u);
}

TEST(TeslaReceiver, StreamOfPacketsAllAuthenticate) {
  TeslaConfig config = test_config();
  TeslaSender sender(config, bytes_of("seed"));
  TeslaReceiver receiver(config, sender.chain().commitment(),
                         sim::LooseClock(0, 0));
  std::size_t authenticated = 0;
  for (std::uint32_t i = 1; i <= 20; ++i) {
    const auto released =
        receiver.receive(sender.make_packet(i, bytes_of("data")), mid(i));
    authenticated += released.size();
  }
  // Keys for intervals 1..18 disclosed by packets 3..20.
  EXPECT_EQ(authenticated, 18u);
  EXPECT_EQ(receiver.stats().macs_rejected, 0u);
}

TEST(TeslaReceiver, ToleratesPacketLoss) {
  // Losing packets only delays key disclosure; the one-way chain recovers
  // skipped keys (TESLA's loss-tolerance property).
  TeslaConfig config = test_config();
  TeslaSender sender(config, bytes_of("seed"));
  TeslaReceiver receiver(config, sender.chain().commitment(),
                         sim::LooseClock(0, 0));
  (void)receiver.receive(sender.make_packet(1, bytes_of("m1")), mid(1));
  // Packets of intervals 2..5 all lost; packet 6 discloses key 4, which
  // chains down to key 1.
  const auto released =
      receiver.receive(sender.make_packet(6, bytes_of("m6")), mid(6));
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0].interval, 1u);
}

TEST(TeslaReceiver, RejectsTamperedMessage) {
  TeslaConfig config = test_config();
  TeslaSender sender(config, bytes_of("seed"));
  TeslaReceiver receiver(config, sender.chain().commitment(),
                         sim::LooseClock(0, 0));
  auto packet = sender.make_packet(1, bytes_of("authentic"));
  packet.message = bytes_of("tampered!");
  (void)receiver.receive(packet, mid(1));
  const auto released =
      receiver.receive(sender.make_packet(3, bytes_of("m3")), mid(3));
  EXPECT_TRUE(released.empty());
  EXPECT_EQ(receiver.stats().macs_rejected, 1u);
}

TEST(TeslaReceiver, SafetyCheckDropsLatePackets) {
  // A packet for interval 1 arriving during interval 4 is unsafe: its key
  // was disclosed in interval 3 and anyone could have forged the MAC.
  TeslaConfig config = test_config();
  TeslaSender sender(config, bytes_of("seed"));
  TeslaReceiver receiver(config, sender.chain().commitment(),
                         sim::LooseClock(0, 0));
  (void)receiver.receive(sender.make_packet(1, bytes_of("late")), mid(4));
  EXPECT_EQ(receiver.stats().packets_unsafe, 1u);
  EXPECT_EQ(receiver.stats().packets_buffered, 0u);
}

TEST(TeslaReceiver, ReplayedPacketCannotForge) {
  // An attacker who waits for the key disclosure and then forges a
  // packet for the disclosed interval is stopped by the safety check.
  TeslaConfig config = test_config();
  TeslaSender sender(config, bytes_of("seed"));
  TeslaReceiver receiver(config, sender.chain().commitment(),
                         sim::LooseClock(0, 0));
  // The attacker heard packet 3 (which disclosed key 1) and now crafts a
  // forged interval-1 packet with a valid MAC under the public key 1.
  const Bytes key1 = sender.chain().key(1);
  const Bytes mac_key = crypto::prf_bytes(crypto::PrfDomain::kMacKey, key1);
  wire::TeslaPacket forged;
  forged.sender = config.sender_id;
  forged.interval = 1;
  forged.message = bytes_of("forged data");
  forged.mac = crypto::compute_mac(mac_key, forged.message, config.mac_size);
  const auto released = receiver.receive(forged, mid(3));
  EXPECT_TRUE(released.empty());
  EXPECT_EQ(receiver.stats().packets_unsafe, 1u);
}

TEST(TeslaReceiver, ClockSkewTightensSafetyCheck) {
  TeslaConfig config = test_config();
  TeslaSender sender(config, bytes_of("seed"));
  // 600ms max offset: a packet received 1.2s before disclosure is unsafe.
  TeslaReceiver receiver(config, sender.chain().commitment(),
                         sim::LooseClock(0, 600 * sim::kMillisecond));
  // Interval 1 key disclosed at t=3s (start of interval 3, d=2). At local
  // 1.9s the sender's clock may be at 3.1s -> unsafe.
  (void)receiver.receive(sender.make_packet(1, bytes_of("m")),
                         1900 * sim::kMillisecond);
  EXPECT_EQ(receiver.stats().packets_unsafe, 1u);
}

TEST(TeslaReceiver, ForgedDisclosureDoesNotAdvanceAnchor) {
  TeslaConfig config = test_config();
  TeslaSender sender(config, bytes_of("seed"));
  TeslaReceiver receiver(config, sender.chain().commitment(),
                         sim::LooseClock(0, 0));
  auto packet = sender.make_packet(4, bytes_of("m"));
  packet.disclosed_key = common::InlineBytes<32>(Bytes(10, 0x13));  // junk key
  (void)receiver.receive(packet, mid(4));
  EXPECT_EQ(receiver.latest_key_index(), 0u);
  EXPECT_EQ(receiver.stats().keys_rejected, 1u);
}

// ------------------------------------------------------- ReservoirBuffer

TEST(ReservoirBuffer, FillsThenSamples) {
  ReservoirBuffer<int> buffer(3);
  Rng rng(1);
  EXPECT_TRUE(buffer.offer(1, rng));
  EXPECT_TRUE(buffer.offer(2, rng));
  EXPECT_TRUE(buffer.offer(3, rng));
  EXPECT_EQ(buffer.contents().size(), 3u);
  buffer.reset();
  EXPECT_TRUE(buffer.empty());
  EXPECT_EQ(buffer.offers(), 0u);
}

TEST(ReservoirBuffer, UniformInclusionProbability) {
  // Property: after n offers into m slots, each item survives with
  // probability m/n — the paper's DoS-mitigation core.
  const std::size_t m = 4;
  const std::size_t n = 20;
  const int trials = 20000;
  std::map<int, int> survival;
  Rng rng(99);
  for (int t = 0; t < trials; ++t) {
    ReservoirBuffer<int> buffer(m);
    for (std::size_t k = 0; k < n; ++k) {
      buffer.offer(static_cast<int>(k), rng);
    }
    for (int kept : buffer.contents()) ++survival[kept];
  }
  const double expected = static_cast<double>(m) / static_cast<double>(n);
  for (const auto& [item, count] : survival) {
    EXPECT_NEAR(static_cast<double>(count) / trials, expected, 0.02)
        << "item " << item;
  }
  EXPECT_EQ(survival.size(), n);  // every position survived sometimes
}

TEST(ReservoirBuffer, TakeCompactsAndNextFillLandsAtTheEnd) {
  // The one slot layout every caller shares: occupied slots are the
  // prefix [0, count), a take shifts later records down, and a fill goes
  // to slot `count` (no draw while a slot is free), whatever the source.
  ReservoirBuffer<int> buffer(4);
  Rng rng(4);
  for (int v = 1; v <= 4; ++v) EXPECT_TRUE(buffer.offer(v, rng));
  EXPECT_TRUE(buffer.take_first([](int v) { return v == 2; }));
  EXPECT_EQ(buffer.contents(), (std::vector<int>{1, 3, 4}));
  const Rng before = rng;
  EXPECT_TRUE(buffer.offer(5, rng));
  EXPECT_EQ(buffer.contents(), (std::vector<int>{1, 3, 4, 5}));
  Rng untouched = before;
  EXPECT_EQ(untouched.next_u64(), rng.next_u64());  // the fill drew nothing

  SeededDraws seeded(9);
  RngDraws draws(rng);
  for (const auto policy : {BufferPolicy::kReservoir, BufferPolicy::kNaiveDrop,
                            BufferPolicy::kAlwaysReplace}) {
    EXPECT_EQ(decide(3, 7, 4, policy, seeded), 3u);
    EXPECT_EQ(decide(3, 7, 4, policy, draws), 3u);
  }
  EXPECT_EQ(decide(4, 7, 4, BufferPolicy::kNaiveDrop, seeded), kDiscard);
}

TEST(ReservoirBuffer, RejectsZeroCapacity) {
  EXPECT_THROW(ReservoirBuffer<int>(0), std::invalid_argument);
  EXPECT_THROW(ReservoirBuffer<int>(0, BufferPolicy::kNaiveDrop),
               std::invalid_argument);
  EXPECT_THROW(ReservoirBuffer<int>(0, BufferPolicy::kAlwaysReplace),
               std::invalid_argument);
}

TEST(NaiveDropBuffer, KeepsFirstArrivals) {
  ReservoirBuffer<int> buffer(2, BufferPolicy::kNaiveDrop);
  Rng rng(2);
  EXPECT_TRUE(buffer.offer(1, rng));
  EXPECT_TRUE(buffer.offer(2, rng));
  EXPECT_FALSE(buffer.offer(3, rng));
  EXPECT_EQ(buffer.contents(), (std::vector<int>{1, 2}));
  EXPECT_EQ(buffer.offers(), 3u);
}

TEST(AlwaysReplaceBuffer, LateArrivalsAlwaysStored) {
  ReservoirBuffer<int> buffer(2, BufferPolicy::kAlwaysReplace);
  Rng rng(3);
  buffer.offer(1, rng);
  buffer.offer(2, rng);
  EXPECT_TRUE(buffer.offer(3, rng));
  // 3 must be present (it replaced something).
  const auto& c = buffer.contents();
  EXPECT_NE(std::find(c.begin(), c.end(), 3), c.end());
}

}  // namespace
}  // namespace dap::tesla
