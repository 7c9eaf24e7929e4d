// Unit tests for μTESLA: symmetric bootstrap, per-interval key
// disclosure, loss tolerance, and forgery resistance.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tesla/mutesla.h"

namespace dap::tesla {
namespace {

using common::Bytes;
using common::bytes_of;

MuTeslaConfig test_config() {
  MuTeslaConfig config;
  config.chain_length = 32;
  config.disclosure_delay = 2;
  config.schedule = sim::IntervalSchedule(0, sim::kSecond);
  return config;
}

sim::SimTime mid(std::uint32_t interval) {
  return (interval - 1) * sim::kSecond + sim::kSecond / 2;
}

TEST(MuTeslaBootstrap, SymmetricMacVerifies) {
  MuTeslaSender sender(test_config(), bytes_of("seed"));
  const Bytes master = bytes_of("pairwise-master-key");
  const auto bootstrap = sender.bootstrap_for(master);
  EXPECT_TRUE(verify_mutesla_bootstrap(bootstrap, master));
  EXPECT_FALSE(verify_mutesla_bootstrap(bootstrap, bytes_of("wrong-key")));
}

TEST(MuTeslaBootstrap, TamperRejected) {
  MuTeslaSender sender(test_config(), bytes_of("seed"));
  const Bytes master = bytes_of("pairwise-master-key");
  auto bootstrap = sender.bootstrap_for(master);
  bootstrap.commitment[0] ^= 1;
  EXPECT_FALSE(verify_mutesla_bootstrap(bootstrap, master));
}

TEST(MuTeslaSender, DataPacketHasNoPiggybackedKey) {
  MuTeslaSender sender(test_config(), bytes_of("seed"));
  const auto p = sender.make_packet(5, bytes_of("m"));
  EXPECT_TRUE(p.disclosed_key.empty());
  EXPECT_EQ(p.disclosed_interval, 0u);
}

TEST(MuTeslaSender, DisclosureScheduleRespectsDelay) {
  MuTeslaSender sender(test_config(), bytes_of("seed"));
  EXPECT_FALSE(sender.disclosure(1).has_value());
  EXPECT_FALSE(sender.disclosure(2).has_value());
  const auto d = sender.disclosure(3);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->interval, 1u);
  EXPECT_EQ(d->key, sender.chain().key(1));
}

TEST(MuTeslaReceiver, AuthenticatesViaSeparateDisclosure) {
  const auto config = test_config();
  MuTeslaSender sender(config, bytes_of("seed"));
  MuTeslaReceiver receiver(config, sender.chain().commitment(),
                           sim::LooseClock(0, 0));
  EXPECT_TRUE(
      receiver.receive(sender.make_packet(1, bytes_of("m1")), mid(1)).empty());
  const auto released = receiver.receive(*sender.disclosure(3), mid(3));
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0].interval, 1u);
  EXPECT_EQ(released[0].message, bytes_of("m1"));
}

TEST(MuTeslaReceiver, LostDisclosureRecoveredByLaterOne) {
  const auto config = test_config();
  MuTeslaSender sender(config, bytes_of("seed"));
  MuTeslaReceiver receiver(config, sender.chain().commitment(),
                           sim::LooseClock(0, 0));
  (void)receiver.receive(sender.make_packet(1, bytes_of("m1")), mid(1));
  (void)receiver.receive(sender.make_packet(2, bytes_of("m2")), mid(2));
  // Disclosure of interval 3 (key 1) lost; disclosure at interval 4
  // carries key 2, which also proves key 1 via the chain.
  const auto released = receiver.receive(*sender.disclosure(4), mid(4));
  EXPECT_EQ(released.size(), 2u);
  EXPECT_EQ(receiver.latest_key_index(), 2u);
}

TEST(MuTeslaReceiver, MultiplePacketsPerInterval) {
  const auto config = test_config();
  MuTeslaSender sender(config, bytes_of("seed"));
  MuTeslaReceiver receiver(config, sender.chain().commitment(),
                           sim::LooseClock(0, 0));
  (void)receiver.receive(sender.make_packet(1, bytes_of("a")), mid(1));
  (void)receiver.receive(sender.make_packet(1, bytes_of("b")), mid(1));
  (void)receiver.receive(sender.make_packet(1, bytes_of("c")), mid(1));
  const auto released = receiver.receive(*sender.disclosure(3), mid(3));
  EXPECT_EQ(released.size(), 3u);
}

TEST(MuTeslaReceiver, ForgedPacketRejectedAtDisclosure) {
  const auto config = test_config();
  MuTeslaSender sender(config, bytes_of("seed"));
  MuTeslaReceiver receiver(config, sender.chain().commitment(),
                           sim::LooseClock(0, 0));
  wire::TeslaPacket forged;
  forged.sender = config.sender_id;
  forged.interval = 1;
  forged.message = bytes_of("evil");
  forged.mac = common::InlineBytes<32>(Bytes(10, 0x11));
  (void)receiver.receive(forged, mid(1));
  const auto released = receiver.receive(*sender.disclosure(3), mid(3));
  EXPECT_TRUE(released.empty());
  EXPECT_EQ(receiver.stats().macs_rejected, 1u);
}

TEST(MuTeslaReceiver, UnsafePacketNotBuffered) {
  const auto config = test_config();
  MuTeslaSender sender(config, bytes_of("seed"));
  MuTeslaReceiver receiver(config, sender.chain().commitment(),
                           sim::LooseClock(0, 0));
  (void)receiver.receive(sender.make_packet(1, bytes_of("late")), mid(5));
  EXPECT_EQ(receiver.stats().packets_unsafe, 1u);
  EXPECT_EQ(receiver.stats().buffered_now, 0u);
}

TEST(MuTeslaReceiver, ForgedDisclosureRejected) {
  const auto config = test_config();
  MuTeslaSender sender(config, bytes_of("seed"));
  MuTeslaReceiver receiver(config, sender.chain().commitment(),
                           sim::LooseClock(0, 0));
  wire::KeyDisclosure forged;
  forged.sender = config.sender_id;
  forged.interval = 1;
  forged.key = common::InlineBytes<32>(Bytes(10, 0x22));
  (void)receiver.receive(forged, mid(3));
  EXPECT_EQ(receiver.stats().keys_rejected, 1u);
  EXPECT_EQ(receiver.latest_key_index(), 0u);
}

TEST(MuTeslaReceiver, DisclosureBandwidthLowerThanTesla) {
  // μTESLA's motivation: one disclosure per interval instead of a key in
  // every packet. With 5 packets per interval the per-interval overhead
  // must be strictly smaller.
  const auto config = test_config();
  MuTeslaSender sender(config, bytes_of("seed"));
  const std::size_t packets_per_interval = 5;
  const std::size_t mutesla_bits =
      packets_per_interval *
          wire::wire_bits(
              wire::Packet{sender.make_packet(5, bytes_of("m"))}) +
      wire::wire_bits(wire::Packet{*sender.disclosure(5)});

  TeslaConfig tesla_config;
  tesla_config.chain_length = 32;
  tesla_config.disclosure_delay = 2;
  TeslaSender tesla_sender(tesla_config, bytes_of("seed"));
  const std::size_t tesla_bits =
      packets_per_interval *
      wire::wire_bits(
          wire::Packet{tesla_sender.make_packet(5, bytes_of("m"))});
  EXPECT_LT(mutesla_bits, tesla_bits);
}

}  // namespace
}  // namespace dap::tesla
