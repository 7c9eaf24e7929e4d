// Unit tests for TESLA++: MAC-before-message broadcasting, self re-MAC
// records, and the memory/DoS trade-offs the paper compares against.

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "sim/adversary.h"
#include "tesla/teslapp.h"

namespace dap::tesla {
namespace {

using common::Bytes;
using common::bytes_of;
using common::Rng;

TeslaPpConfig test_config() {
  TeslaPpConfig config;
  config.chain_length = 32;
  config.schedule = sim::IntervalSchedule(0, sim::kSecond);
  return config;
}

sim::SimTime mid(std::uint32_t interval) {
  return (interval - 1) * sim::kSecond + sim::kSecond / 2;
}

TeslaPpReceiver make_receiver(const TeslaPpConfig& config,
                              const TeslaPpSender& sender) {
  return TeslaPpReceiver(config, sender.chain().commitment(),
                         bytes_of("receiver-local-secret"),
                         sim::LooseClock(0, 0));
}

TEST(TeslaPp, HappyPathAuthenticates) {
  const auto config = test_config();
  TeslaPpSender sender(config, bytes_of("seed"));
  auto receiver = make_receiver(config, sender);

  receiver.receive(sender.announce(1, bytes_of("warning: pothole")), mid(1));
  const auto released = receiver.receive(sender.reveal(1), mid(2));
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0].message, bytes_of("warning: pothole"));
  EXPECT_EQ(receiver.stats().authenticated, 1u);
}

TEST(TeslaPp, MultipleIntervalsPipeline) {
  const auto config = test_config();
  TeslaPpSender sender(config, bytes_of("seed"));
  auto receiver = make_receiver(config, sender);
  std::size_t authenticated = 0;
  for (std::uint32_t i = 1; i <= 10; ++i) {
    receiver.receive(sender.announce(i, bytes_of("m")), mid(i));
    if (i > 1) {
      authenticated += receiver.receive(sender.reveal(i - 1), mid(i)).size();
    }
  }
  EXPECT_EQ(authenticated, 9u);
}

TEST(TeslaPp, RevealWithoutAnnounceFailsToMatch) {
  const auto config = test_config();
  TeslaPpSender sender(config, bytes_of("seed"));
  auto receiver = make_receiver(config, sender);
  (void)sender.announce(1, bytes_of("m"));  // receiver never hears it
  const auto released = receiver.receive(sender.reveal(1), mid(2));
  EXPECT_TRUE(released.empty());
  EXPECT_EQ(receiver.stats().unmatched, 1u);
}

TEST(TeslaPp, SenderRevealRequiresAnnounce) {
  const auto config = test_config();
  TeslaPpSender sender(config, bytes_of("seed"));
  EXPECT_THROW(sender.reveal(5), std::logic_error);
}

TEST(TeslaPp, ForgedAnnouncementCannotAuthenticate) {
  const auto config = test_config();
  TeslaPpSender sender(config, bytes_of("seed"));
  auto receiver = make_receiver(config, sender);
  sim::FloodingForger forger(config.sender_id, config.mac_size, Rng(1));
  // The receiver hears only a forged announcement; the authentic one is
  // lost. The later reveal must not match the forged record.
  (void)sender.announce(1, bytes_of("m"));
  receiver.receive(forger.forge(1), mid(1));
  const auto released = receiver.receive(sender.reveal(1), mid(2));
  EXPECT_TRUE(released.empty());  // forged record does not match
}

TEST(TeslaPp, FloodedAnnouncementsDoNotDisplaceAuthentic) {
  // Without a record cap TESLA++ stores all records; the authentic one
  // survives no matter the flood size (its weakness is memory, not loss).
  const auto config = test_config();
  TeslaPpSender sender(config, bytes_of("seed"));
  auto receiver = make_receiver(config, sender);
  sim::FloodingForger forger(config.sender_id, config.mac_size, Rng(2));
  for (int i = 0; i < 100; ++i) receiver.receive(forger.forge(1), mid(1));
  receiver.receive(sender.announce(1, bytes_of("real")), mid(1));
  const auto released = receiver.receive(sender.reveal(1), mid(2));
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(receiver.stats().records_stored, 101u);
}

TEST(TeslaPp, RecordCapMakesEarlyFloodWin) {
  // With a cap and first-come-first-kept semantics, an attacker that
  // floods *before* the authentic announcement wins — the weakness DAP's
  // reservoir selection addresses.
  auto config = test_config();
  config.max_records_per_interval = 8;
  TeslaPpSender sender(config, bytes_of("seed"));
  auto receiver = make_receiver(config, sender);
  sim::FloodingForger forger(config.sender_id, config.mac_size, Rng(3));
  for (int i = 0; i < 8; ++i) receiver.receive(forger.forge(1), mid(1));
  receiver.receive(sender.announce(1, bytes_of("real")), mid(1));
  EXPECT_EQ(receiver.stats().records_dropped, 1u);
  const auto released = receiver.receive(sender.reveal(1), mid(2));
  EXPECT_TRUE(released.empty());
}

TEST(TeslaPp, LateAnnouncementUnsafe) {
  const auto config = test_config();
  TeslaPpSender sender(config, bytes_of("seed"));
  auto receiver = make_receiver(config, sender);
  receiver.receive(sender.announce(1, bytes_of("m")), mid(3));
  EXPECT_EQ(receiver.stats().announces_unsafe, 1u);
}

TEST(TeslaPp, ForgedKeyInRevealRejected) {
  const auto config = test_config();
  TeslaPpSender sender(config, bytes_of("seed"));
  auto receiver = make_receiver(config, sender);
  receiver.receive(sender.announce(1, bytes_of("m")), mid(1));
  auto reveal = sender.reveal(1);
  reveal.key = common::InlineBytes<32>(Bytes(10, 0x5a));
  const auto released = receiver.receive(reveal, mid(2));
  EXPECT_TRUE(released.empty());
  EXPECT_EQ(receiver.stats().keys_rejected, 1u);
}

TEST(TeslaPp, TamperedRevealMessageRejected) {
  const auto config = test_config();
  TeslaPpSender sender(config, bytes_of("seed"));
  auto receiver = make_receiver(config, sender);
  receiver.receive(sender.announce(1, bytes_of("authentic")), mid(1));
  auto reveal = sender.reveal(1);
  reveal.message = bytes_of("tampered");
  const auto released = receiver.receive(reveal, mid(2));
  EXPECT_TRUE(released.empty());
  EXPECT_EQ(receiver.stats().unmatched, 1u);
}

TEST(TeslaPp, StoredRecordBitsTracksRecords) {
  const auto config = test_config();
  TeslaPpSender sender(config, bytes_of("seed"));
  auto receiver = make_receiver(config, sender);
  EXPECT_EQ(receiver.stored_record_bits(), 0u);
  receiver.receive(sender.announce(1, bytes_of("m")), mid(1));
  // One record: self_mac_size*8 + 32 index bits.
  EXPECT_EQ(receiver.stored_record_bits(), config.self_mac_size * 8 + 32);
  (void)receiver.receive(sender.reveal(1), mid(2));
  EXPECT_EQ(receiver.stored_record_bits(), 0u);  // bucket consumed
}

TEST(TeslaPp, DistinctReceiversStoreDistinctRecords) {
  // The self re-MAC depends on the receiver's local secret, so a
  // colluding node cannot precompute another node's records.
  const auto config = test_config();
  TeslaPpSender sender(config, bytes_of("seed"));
  TeslaPpReceiver a(config, sender.chain().commitment(), bytes_of("secret-a"),
                    sim::LooseClock(0, 0));
  TeslaPpReceiver b(config, sender.chain().commitment(), bytes_of("secret-b"),
                    sim::LooseClock(0, 0));
  const auto announce = sender.announce(1, bytes_of("m"));
  a.receive(announce, mid(1));
  b.receive(announce, mid(1));
  // Both still authenticate correctly.
  EXPECT_EQ(a.receive(sender.reveal(1), mid(2)).size(), 1u);
  EXPECT_EQ(b.receive(sender.reveal(1), mid(2)).size(), 1u);
}

TEST(TeslaPp, RejectsEmptyLocalSecret) {
  const auto config = test_config();
  TeslaPpSender sender(config, bytes_of("seed"));
  EXPECT_THROW(TeslaPpReceiver(config, sender.chain().commitment(), Bytes{},
                               sim::LooseClock(0, 0)),
               std::invalid_argument);
}

// --------------------------------------------------------- signed anchors

TEST(SignedAnchor, VerifiesAgainstRoot) {
  tesla::TeslaPpConfig config;
  config.chain_length = 32;
  tesla::TeslaPpSender sender(config, bytes_of("seed"));
  const auto anchor = sender.make_anchor(10);
  EXPECT_TRUE(tesla::verify_anchor(anchor, sender.signature_root()));
  EXPECT_EQ(anchor.key, sender.chain().key(10));
}

TEST(SignedAnchor, TamperRejected) {
  tesla::TeslaPpConfig config;
  config.chain_length = 32;
  tesla::TeslaPpSender sender(config, bytes_of("seed"));
  auto anchor = sender.make_anchor(10);
  anchor.key[0] ^= 1;
  EXPECT_FALSE(tesla::verify_anchor(anchor, sender.signature_root()));
  anchor.key[0] ^= 1;
  anchor.interval = 11;
  EXPECT_FALSE(tesla::verify_anchor(anchor, sender.signature_root()));
}

TEST(SignedAnchor, MidStreamBootstrapAuthenticates) {
  tesla::TeslaPpConfig config;
  config.chain_length = 32;
  config.schedule = sim::IntervalSchedule(0, sim::kSecond);
  tesla::TeslaPpSender sender(config, bytes_of("seed"));

  // A node joins during interval 11, long after K_0 was useful. It gets
  // the signed anchor for interval 10 and verifies it against the root.
  const auto anchor = sender.make_anchor(10);
  ASSERT_TRUE(tesla::verify_anchor(anchor, sender.signature_root()));
  tesla::TeslaPpReceiver late_joiner(config, anchor.key,
                                     bytes_of("late-local"),
                                     sim::LooseClock(0, 0), anchor.interval);

  late_joiner.receive(sender.announce(11, bytes_of("fresh data")), mid(11));
  const auto released = late_joiner.receive(sender.reveal(11), mid(12));
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0].message, bytes_of("fresh data"));
}

TEST(SignedAnchor, AnchorsAreFiniteResource) {
  tesla::TeslaPpConfig config;
  config.chain_length = 64;
  tesla::TeslaPpSender sender(config, bytes_of("seed"));
  const auto initial = sender.anchors_remaining();
  EXPECT_EQ(initial, 16u);  // Merkle height 4
  for (std::uint32_t i = 1; i <= initial; ++i) {
    (void)sender.make_anchor(i);
  }
  EXPECT_EQ(sender.anchors_remaining(), 0u);
  EXPECT_THROW(sender.make_anchor(20), std::runtime_error);
}

TEST(SignedAnchor, CrossSenderAnchorRejected) {
  tesla::TeslaPpConfig config;
  config.chain_length = 16;
  tesla::TeslaPpSender alice(config, bytes_of("alice"));
  tesla::TeslaPpSender bob(config, bytes_of("bob"));
  const auto anchor = alice.make_anchor(5);
  EXPECT_FALSE(tesla::verify_anchor(anchor, bob.signature_root()));
}

}  // namespace
}  // namespace dap::tesla
