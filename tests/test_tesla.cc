// Unit tests for the shared ChainAuthenticator and the multi-buffer
// stores.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.h"
#include "crypto/keychain.h"
#include "tesla/buffer.h"
#include "tesla/chain_auth.h"

namespace dap::tesla {
namespace {

using common::Bytes;
using common::bytes_of;
using common::Rng;

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
  const Bytes wrong_size(chain.key_size() + 1, 0);
  EXPECT_FALSE(auth.accept(8, wrong_size));  // key size
  EXPECT_EQ(auth.rejected(), 4u);
  // Unverifiable reveals are not rejections: empty keys are malformed,
  // indices below the rebase floor are a cache miss.
  auth.rebase_to_newest();
  EXPECT_FALSE(auth.accept(3, chain.key(3)));
  EXPECT_FALSE(auth.accept(3, wrong_size));
  EXPECT_FALSE(auth.accept(7, Bytes{}));
  EXPECT_EQ(auth.rejected(), 4u);
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
  // rebase_to_newest is the receiver's prune: every key below the anchor
  // stops being derivable, the anchor itself stays.
  const crypto::KeyChain chain(bytes_of("seed"), 8);
  ChainAuthenticator auth(crypto::PrfDomain::kChainStep, chain.key_size(),
                          chain.commitment());
  ASSERT_TRUE(auth.accept(6, chain.key(6)));
  auth.rebase_to_newest();
  EXPECT_FALSE(auth.key(2).has_value());
  EXPECT_FALSE(auth.key(5).has_value());
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
  ASSERT_TRUE(auth.accept(33, chain.key(33)));
  auth.rebase_to_newest();
  ASSERT_TRUE(auth.accept(48, chain.key(48)));
  EXPECT_FALSE(auth.key(32).has_value());
  EXPECT_FALSE(auth.accept(20, chain.key(20)));
  EXPECT_EQ(auth.rejected(), 0u);  // below the floor: unverifiable
  // Keys between the floor and the anchor derive from the checkpoints
  // the walk after the rebase installed.
  for (const std::uint32_t i : {33u, 40u, 47u}) {
    ASSERT_TRUE(auth.key(i).has_value()) << "key " << i;
    EXPECT_EQ(*auth.key(i), chain.key(i));
  }
  EXPECT_TRUE(auth.accept(60, chain.key(60)));
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
