// Tests for multi-sender DAP (MCN setting: any node can broadcast) and
// TESLA++ signed anchors (mid-stream bootstrap via Merkle signatures).

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dap/multi_sender.h"
#include "sim/adversary.h"
#include "tesla/teslapp.h"

namespace dap {
namespace {

using common::Bytes;
using common::bytes_of;
using common::Rng;

protocol::DapConfig sender_config() {
  protocol::DapConfig config;
  config.chain_length = 32;
  config.schedule = sim::IntervalSchedule(0, sim::kSecond);
  return config;
}

sim::SimTime mid(std::uint32_t interval) {
  return (interval - 1) * sim::kSecond + sim::kSecond / 2;
}

// ---------------------------------------------------------- multi-sender

TEST(MultiSender, RoutesBySenderId) {
  const auto config = sender_config();
  protocol::DapSender alice({.sender_id = 10,
                             .chain_length = 32,
                             .schedule = config.schedule},
                            bytes_of("alice"));
  protocol::DapSender bob({.sender_id = 20,
                           .chain_length = 32,
                           .schedule = config.schedule},
                          bytes_of("bob"));

  protocol::MultiSenderReceiver receiver(bytes_of("local"),
                                         sim::LooseClock(0, 0), Rng(1), 16);
  receiver.register_sender(10, alice.config(), alice.chain().commitment());
  receiver.register_sender(20, bob.config(), bob.chain().commitment());
  EXPECT_EQ(receiver.senders(), 2u);
  EXPECT_EQ(receiver.buffers_per_sender(), 8u);

  receiver.receive(alice.announce(1, bytes_of("from-alice")), mid(1));
  receiver.receive(bob.announce(1, bytes_of("from-bob")), mid(1));

  const auto a = receiver.receive(alice.reveal(1), mid(2));
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->sender, 10u);
  EXPECT_EQ(a->message.message, bytes_of("from-alice"));

  const auto b = receiver.receive(bob.reveal(1), mid(2));
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->sender, 20u);
  EXPECT_EQ(b->message.message, bytes_of("from-bob"));
}

TEST(MultiSender, UnknownSenderDropped) {
  protocol::MultiSenderReceiver receiver(bytes_of("local"),
                                         sim::LooseClock(0, 0), Rng(2), 8);
  wire::MacAnnounce stray;
  stray.sender = 99;
  stray.interval = 1;
  stray.mac = common::InlineBytes<32>(Bytes(10, 0x42));
  receiver.receive(stray, mid(1));
  wire::MessageReveal stray_reveal;
  stray_reveal.sender = 99;
  stray_reveal.interval = 1;
  EXPECT_FALSE(receiver.receive(stray_reveal, mid(2)).has_value());
  EXPECT_EQ(receiver.stats().unknown_sender_packets, 2u);
}

TEST(MultiSender, BudgetRebalancesOnRegistration) {
  protocol::MultiSenderReceiver receiver(bytes_of("local"),
                                         sim::LooseClock(0, 0), Rng(3), 12);
  const auto config = sender_config();
  protocol::DapSender s1({.sender_id = 1, .chain_length = 8}, bytes_of("a"));
  receiver.register_sender(1, s1.config(), s1.chain().commitment());
  EXPECT_EQ(receiver.buffers_per_sender(), 12u);
  protocol::DapSender s2({.sender_id = 2, .chain_length = 8}, bytes_of("b"));
  receiver.register_sender(2, s2.config(), s2.chain().commitment());
  EXPECT_EQ(receiver.buffers_per_sender(), 6u);
  protocol::DapSender s3({.sender_id = 3, .chain_length = 8}, bytes_of("c"));
  protocol::DapSender s4({.sender_id = 4, .chain_length = 8}, bytes_of("d"));
  protocol::DapSender s5({.sender_id = 5, .chain_length = 8}, bytes_of("e"));
  receiver.register_sender(3, s3.config(), s3.chain().commitment());
  receiver.register_sender(4, s4.config(), s4.chain().commitment());
  receiver.register_sender(5, s5.config(), s5.chain().commitment());
  EXPECT_EQ(receiver.buffers_per_sender(), 2u);
  (void)config;
}

TEST(MultiSender, BudgetNeverBelowOneBuffer) {
  protocol::MultiSenderReceiver receiver(bytes_of("local"),
                                         sim::LooseClock(0, 0), Rng(4), 2);
  for (wire::NodeId id = 1; id <= 5; ++id) {
    protocol::DapSender s({.sender_id = id, .chain_length = 4},
                          Rng(id).bytes(8));
    receiver.register_sender(id, s.config(), s.chain().commitment());
  }
  EXPECT_EQ(receiver.buffers_per_sender(), 1u);
  // Budget 2 over 5 senders: the 2 real buffers land on the lowest ids,
  // the rest hold the 1-buffer floor.
  EXPECT_EQ(receiver.buffers_for(1), 1u);
  EXPECT_EQ(receiver.buffers_for(5), 1u);
}

TEST(MultiSender, BudgetRemainderIsNotStranded) {
  // Budget 10 over 3 senders must hand out 4+3+3, not floor to 3+3+3
  // and strand a buffer the node agreed to spend.
  protocol::MultiSenderReceiver receiver(bytes_of("local"),
                                         sim::LooseClock(0, 0), Rng(11), 10);
  for (wire::NodeId id = 1; id <= 3; ++id) {
    protocol::DapSender s({.sender_id = id, .chain_length = 4},
                          Rng(id).bytes(8));
    receiver.register_sender(id, s.config(), s.chain().commitment());
  }
  EXPECT_EQ(receiver.buffers_per_sender(), 3u);  // the guaranteed floor
  EXPECT_EQ(receiver.buffers_for(1), 4u);        // remainder goes low-id first
  EXPECT_EQ(receiver.buffers_for(2), 3u);
  EXPECT_EQ(receiver.buffers_for(3), 3u);
  EXPECT_EQ(receiver.buffers_for(1) + receiver.buffers_for(2) +
                receiver.buffers_for(3),
            10u);
  EXPECT_EQ(receiver.buffers_for(99), 0u);  // unknown sender
}

TEST(MultiSender, BudgetRemainderFollowsRegistrationChanges) {
  protocol::MultiSenderReceiver receiver(bytes_of("local"),
                                         sim::LooseClock(0, 0), Rng(12), 7);
  protocol::DapSender s1({.sender_id = 1, .chain_length = 4}, bytes_of("a"));
  protocol::DapSender s2({.sender_id = 2, .chain_length = 4}, bytes_of("b"));
  receiver.register_sender(2, s2.config(), s2.chain().commitment());
  EXPECT_EQ(receiver.buffers_for(2), 7u);  // sole sender takes the lot
  receiver.register_sender(1, s1.config(), s1.chain().commitment());
  // 7 over 2: the lower id gets the odd buffer, and that holds no matter
  // which sender registered first.
  EXPECT_EQ(receiver.buffers_for(1), 4u);
  EXPECT_EQ(receiver.buffers_for(2), 3u);
}

TEST(MultiSender, RemainderBufferImprovesFloodSurvival) {
  // The extra buffer is real capacity: a sender holding share+1 keeps
  // more records under identical load than it would at the bare floor.
  protocol::MultiSenderReceiver receiver(bytes_of("local"),
                                         sim::LooseClock(0, 0), Rng(13), 7);
  protocol::DapSender alice({.sender_id = 10, .chain_length = 8},
                            bytes_of("alice"));
  protocol::DapSender bob({.sender_id = 20, .chain_length = 8},
                          bytes_of("bob"));
  receiver.register_sender(10, alice.config(), alice.chain().commitment());
  receiver.register_sender(20, bob.config(), bob.chain().commitment());
  ASSERT_EQ(receiver.buffers_for(10), 4u);
  // Four distinct messages announced in one interval: all four fit in
  // Alice's 4 slots, which a floor-share of 3 could never hold.
  for (const char* msg : {"w", "x", "y", "z"}) {
    receiver.receive(alice.announce(1, bytes_of(msg)), mid(1));
  }
  const auto* stats = receiver.sender_stats(10);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->records_stored, 4u);
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_TRUE(receiver.receive(alice.reveal(1, k), mid(2)).has_value())
        << "message " << k;
  }
}

TEST(MultiSender, FloodAgainstOneSenderDoesNotAffectAnother) {
  protocol::MultiSenderReceiver receiver(bytes_of("local"),
                                         sim::LooseClock(0, 0), Rng(5), 8);
  protocol::DapSender alice({.sender_id = 10, .chain_length = 8},
                            bytes_of("alice"));
  protocol::DapSender bob({.sender_id = 20, .chain_length = 8},
                          bytes_of("bob"));
  receiver.register_sender(10, alice.config(), alice.chain().commitment());
  receiver.register_sender(20, bob.config(), bob.chain().commitment());

  // Flood targets Alice's id only.
  sim::FloodingForger forger(10, 10, Rng(6));
  receiver.receive(alice.announce(1, bytes_of("a")), mid(1));
  receiver.receive(bob.announce(1, bytes_of("b")), mid(1));
  for (int i = 0; i < 50; ++i) receiver.receive(forger.forge(1), mid(1));

  // Bob's round is untouched: authentic record guaranteed to survive.
  ASSERT_TRUE(receiver.receive(bob.reveal(1), mid(2)).has_value());
  const auto* bob_stats = receiver.sender_stats(20);
  ASSERT_NE(bob_stats, nullptr);
  EXPECT_EQ(bob_stats->records_offered, 1u);
}

TEST(MultiSender, ReRegistrationReplacesState) {
  protocol::MultiSenderReceiver receiver(bytes_of("local"),
                                         sim::LooseClock(0, 0), Rng(7), 8);
  protocol::DapSender old_sender({.sender_id = 1, .chain_length = 8},
                                 bytes_of("old"));
  receiver.register_sender(1, old_sender.config(),
                           old_sender.chain().commitment());
  protocol::DapSender new_sender({.sender_id = 1, .chain_length = 8},
                                 bytes_of("new"));
  receiver.register_sender(1, new_sender.config(),
                           new_sender.chain().commitment());
  EXPECT_EQ(receiver.senders(), 1u);
  receiver.receive(new_sender.announce(1, bytes_of("m")), mid(1));
  EXPECT_TRUE(receiver.receive(new_sender.reveal(1), mid(2)).has_value());
}

TEST(MultiSender, RejectsBadConstruction) {
  EXPECT_THROW(protocol::MultiSenderReceiver(Bytes{}, sim::LooseClock(0, 0),
                                             Rng(8), 8),
               std::invalid_argument);
  EXPECT_THROW(protocol::MultiSenderReceiver(bytes_of("x"),
                                             sim::LooseClock(0, 0), Rng(8), 0),
               std::invalid_argument);
}

TEST(MultiSender, MemoryAccountingSumsSenders) {
  protocol::MultiSenderReceiver receiver(bytes_of("local"),
                                         sim::LooseClock(0, 0), Rng(9), 8);
  protocol::DapSender alice({.sender_id = 10, .chain_length = 8},
                            bytes_of("alice"));
  protocol::DapSender bob({.sender_id = 20, .chain_length = 8},
                          bytes_of("bob"));
  receiver.register_sender(10, alice.config(), alice.chain().commitment());
  receiver.register_sender(20, bob.config(), bob.chain().commitment());
  receiver.receive(alice.announce(1, bytes_of("a")), mid(1));
  receiver.receive(bob.announce(1, bytes_of("b")), mid(1));
  EXPECT_EQ(receiver.stored_record_bits(), 2 * 56u);
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
  auto late_joiner = tesla::TeslaPpReceiver::from_anchor(
      config, anchor, bytes_of("late-local"), sim::LooseClock(0, 0));

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
}  // namespace dap
