// Unit tests for multi-level μTESLA with EFTP and EDRP options: CDM
// distribution, multi-buffer DoS resistance, low-chain recovery via the
// high-level key link, and the EDRP hash chain.

#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "sim/channel.h"
#include "tesla/multilevel.h"

namespace dap::tesla {
namespace {

using common::Bytes;
using common::bytes_of;
using common::Rng;

MultiLevelConfig test_config(crypto::LevelLink link, bool edrp) {
  MultiLevelConfig config;
  config.high_length = 8;
  config.low_length = 6;
  config.low_disclosure_delay = 2;
  config.cdm_buffers = 3;
  config.link = link;
  config.edrp = edrp;
  config.high_schedule = sim::IntervalSchedule(0, 6 * sim::kSecond);
  return config;
}

sim::SimTime cdm_time(const MultiLevelConfig& config, std::uint32_t i) {
  return config.high_schedule.interval_start(i) + sim::kSecond / 2;
}

sim::SimTime data_time(const MultiLevelConfig& config, std::uint32_t i,
                       std::uint32_t j) {
  return config.high_schedule.interval_start(i) +
         (j - 1) * config.low_schedule().duration() +
         config.low_schedule().duration() / 2;
}

// ---------------------------------------------------------------- config

TEST(MultiLevelConfig, IndexMapping) {
  const auto config = test_config(crypto::LevelLink::kOriginal, false);
  EXPECT_EQ(config.global_index(1, 1), 1u);
  EXPECT_EQ(config.global_index(1, 6), 6u);
  EXPECT_EQ(config.global_index(2, 1), 7u);
  for (std::uint32_t i = 1; i <= 4; ++i) {
    for (std::uint32_t j = 1; j <= 6; ++j) {
      const auto [hi, lo] = config.split_index(config.global_index(i, j));
      EXPECT_EQ(hi, i);
      EXPECT_EQ(lo, j);
    }
  }
}

TEST(MultiLevelConfig, LowScheduleDerived) {
  const auto config = test_config(crypto::LevelLink::kOriginal, false);
  EXPECT_EQ(config.low_schedule().duration(), sim::kSecond);
}

// ---------------------------------------------------------------- sender

TEST(MultiLevelSender, CdmStructure) {
  const auto config = test_config(crypto::LevelLink::kOriginal, false);
  MultiLevelSender sender(config, bytes_of("seed"));
  const auto& cdm3 = sender.cdm(3);
  EXPECT_EQ(cdm3.high_interval, 3u);
  EXPECT_EQ(cdm3.low_commitment, sender.chain().low_key(5, 0));
  EXPECT_EQ(cdm3.disclosed_high_key, sender.chain().high_key(2));
  EXPECT_TRUE(cdm3.next_cdm_image.empty());  // no EDRP
  // Last two intervals have no i+2 chain to announce.
  EXPECT_TRUE(sender.cdm(7).low_commitment.empty());
  EXPECT_TRUE(sender.cdm(8).low_commitment.empty());
}

TEST(MultiLevelSender, EdrpCdmChainsBackward) {
  const auto config = test_config(crypto::LevelLink::kOriginal, true);
  MultiLevelSender sender(config, bytes_of("seed"));
  for (std::uint32_t i = 1; i < 8; ++i) {
    EXPECT_EQ(sender.cdm(i).next_cdm_image,
              crypto::sha256_bytes(cdm_image_payload(sender.cdm(i + 1))))
        << "interval " << i;
  }
  EXPECT_TRUE(sender.cdm(8).next_cdm_image.empty());
}

TEST(MultiLevelSender, DataPacketUsesLowChain) {
  const auto config = test_config(crypto::LevelLink::kOriginal, false);
  MultiLevelSender sender(config, bytes_of("seed"));
  const auto p = sender.make_data_packet(2, 4, bytes_of("m"));
  EXPECT_EQ(p.interval, config.global_index(2, 4));
  EXPECT_EQ(p.disclosed_interval, config.global_index(2, 2));
  EXPECT_EQ(p.disclosed_key, sender.chain().low_key(2, 2));
  const auto early = sender.make_data_packet(2, 2, bytes_of("m"));
  EXPECT_TRUE(early.disclosed_key.empty());
}

TEST(MultiLevelSender, RejectsOutOfRange) {
  const auto config = test_config(crypto::LevelLink::kOriginal, false);
  MultiLevelSender sender(config, bytes_of("seed"));
  EXPECT_THROW((void)sender.cdm(0), std::out_of_range);
  EXPECT_THROW((void)sender.cdm(9), std::out_of_range);
  EXPECT_THROW(sender.make_data_packet(0, 1, bytes_of("m")),
               std::out_of_range);
  EXPECT_THROW(sender.make_data_packet(1, 7, bytes_of("m")),
               std::out_of_range);
}

// ------------------------------------------------------------- receiver

class MultiLevelModes
    : public ::testing::TestWithParam<std::pair<crypto::LevelLink, bool>> {};

TEST_P(MultiLevelModes, HappyPathAuthenticatesCdmsAndData) {
  const auto [link, edrp] = GetParam();
  const auto config = test_config(link, edrp);
  MultiLevelSender sender(config, bytes_of("seed"));
  MultiLevelReceiver receiver(config, sender.bootstrap(),
                              sim::LooseClock(0, 0), Rng(1));
  std::size_t messages = 0;
  for (std::uint32_t i = 1; i <= config.high_length; ++i) {
    auto events = receiver.receive(sender.cdm(i), cdm_time(config, i));
    messages += events.messages.size();
    for (std::uint32_t j = 1; j <= config.low_length; ++j) {
      auto data_events = receiver.receive(
          sender.make_data_packet(i, j, bytes_of("r")), data_time(config, i, j));
      messages += data_events.messages.size();
    }
  }
  // Every interval's data except the last d packets of the final
  // intervals authenticate; CDMs 1..high_length-1 authenticate (the last
  // one's key is never disclosed).
  EXPECT_GE(receiver.stats().cdm_authenticated, config.high_length - 1);
  EXPECT_GT(messages, (config.high_length - 1) * (config.low_length - 2));
  EXPECT_EQ(receiver.stats().data_rejected, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, MultiLevelModes,
    ::testing::Values(std::make_pair(crypto::LevelLink::kOriginal, false),
                      std::make_pair(crypto::LevelLink::kOriginal, true),
                      std::make_pair(crypto::LevelLink::kEftp, false),
                      std::make_pair(crypto::LevelLink::kEftp, true)));

TEST(MultiLevelReceiver, CdmAuthenticatedOneIntervalLater) {
  const auto config = test_config(crypto::LevelLink::kOriginal, false);
  MultiLevelSender sender(config, bytes_of("seed"));
  MultiLevelReceiver receiver(config, sender.bootstrap(),
                              sim::LooseClock(0, 0), Rng(2));
  auto events = receiver.receive(sender.cdm(1), cdm_time(config, 1));
  EXPECT_TRUE(events.cdms.empty());
  EXPECT_FALSE(receiver.cdm_authentic(1));
  events = receiver.receive(sender.cdm(2), cdm_time(config, 2));
  ASSERT_EQ(events.cdms.size(), 1u);
  EXPECT_EQ(events.cdms[0].high_interval, 1u);
  EXPECT_EQ(events.cdms[0].path, CdmAuthPath::kMacAfterKeyDisclosure);
  EXPECT_TRUE(receiver.cdm_authentic(1));
}

TEST(MultiLevelReceiver, EdrpAuthenticatesInstantlyAfterFirst) {
  const auto config = test_config(crypto::LevelLink::kOriginal, true);
  MultiLevelSender sender(config, bytes_of("seed"));
  MultiLevelReceiver receiver(config, sender.bootstrap(),
                              sim::LooseClock(0, 0), Rng(3));
  (void)receiver.receive(sender.cdm(1), cdm_time(config, 1));
  // CDM_2's own receive both authenticates CDM_1 (key path) and itself
  // (hash path, because CDM_1 carried H(CDM_2)).
  const auto events = receiver.receive(sender.cdm(2), cdm_time(config, 2));
  ASSERT_EQ(events.cdms.size(), 2u);
  EXPECT_EQ(events.cdms[0].high_interval, 1u);
  EXPECT_EQ(events.cdms[1].high_interval, 2u);
  EXPECT_EQ(events.cdms[1].path, CdmAuthPath::kHashChain);
}

TEST(MultiLevelReceiver, EdrpFiltersForgedCdmInstantly) {
  const auto config = test_config(crypto::LevelLink::kOriginal, true);
  MultiLevelSender sender(config, bytes_of("seed"));
  MultiLevelReceiver receiver(config, sender.bootstrap(),
                              sim::LooseClock(0, 0), Rng(4));
  (void)receiver.receive(sender.cdm(1), cdm_time(config, 1));
  (void)receiver.receive(sender.cdm(2), cdm_time(config, 2));
  // Forged CDM_3 (random MAC/commitment, replayed disclosed key).
  wire::CdmPacket forged = sender.cdm(3);
  Rng rng(5);
  forged.low_commitment = rng.bytes(10);
  forged.mac = common::InlineBytes<32>(rng.bytes(10));
  const auto events = receiver.receive(forged, cdm_time(config, 3));
  EXPECT_TRUE(events.cdms.empty());
  EXPECT_EQ(receiver.stats().cdm_forged_dropped, 1u);
  // The authentic copy still authenticates instantly afterwards.
  const auto ok = receiver.receive(sender.cdm(3), cdm_time(config, 3));
  ASSERT_EQ(ok.cdms.size(), 1u);
  EXPECT_EQ(ok.cdms[0].path, CdmAuthPath::kHashChain);
}

TEST(MultiLevelReceiver, FloodedCdmsFilteredAtKeyDisclosure) {
  const auto config = test_config(crypto::LevelLink::kOriginal, false);
  MultiLevelSender sender(config, bytes_of("seed"));
  MultiLevelReceiver receiver(config, sender.bootstrap(),
                              sim::LooseClock(0, 0), Rng(6));
  // Interval 1: one authentic CDM copy among forged ones.
  Rng rng(7);
  (void)receiver.receive(sender.cdm(1), cdm_time(config, 1));
  for (int f = 0; f < 2; ++f) {
    wire::CdmPacket forged = sender.cdm(1);
    forged.mac = common::InlineBytes<32>(rng.bytes(10));
    forged.low_commitment = rng.bytes(10);
    (void)receiver.receive(forged, cdm_time(config, 1));
  }
  const auto events = receiver.receive(sender.cdm(2), cdm_time(config, 2));
  ASSERT_EQ(events.cdms.size(), 1u);  // the authentic one won
  EXPECT_EQ(receiver.stats().cdm_forged_dropped, 2u);
  EXPECT_TRUE(receiver.low_chain_known(3));
}

TEST(MultiLevelReceiver, LateCdmCopyIsUnsafe) {
  const auto config = test_config(crypto::LevelLink::kOriginal, false);
  MultiLevelSender sender(config, bytes_of("seed"));
  MultiLevelReceiver receiver(config, sender.bootstrap(),
                              sim::LooseClock(0, 0), Rng(8));
  // CDM_1 arriving during interval 2 is unsafe (K_1 may be public).
  (void)receiver.receive(sender.cdm(1), cdm_time(config, 2));
  EXPECT_EQ(receiver.stats().cdm_unsafe, 1u);
}

TEST(MultiLevelReceiver, OriginalRecoversLowChainViaNextHighKey) {
  // Drop every disclosure in interval 2 from j=1 (no keys at all): data
  // of interval 2 recovers when K_3 becomes known (CDM_4 arrival... but
  // K_3 is disclosed by CDM_4; under the original link low chain 2 is
  // anchored to K_3).
  const auto config = test_config(crypto::LevelLink::kOriginal, false);
  MultiLevelSender sender(config, bytes_of("seed"));
  MultiLevelReceiver receiver(config, sender.bootstrap(),
                              sim::LooseClock(0, 0), Rng(9));
  (void)receiver.receive(sender.cdm(1), cdm_time(config, 1));
  (void)receiver.receive(sender.cdm(2), cdm_time(config, 2));
  // Data packet (2, 3) with its disclosure stripped.
  auto data = sender.make_data_packet(2, 3, bytes_of("lost-keys"));
  data.disclosed_interval = 0;
  data.disclosed_key = {};
  auto events = receiver.receive(data, data_time(config, 2, 3));
  EXPECT_TRUE(events.messages.empty());

  // CDM_3 discloses K_2: not enough under the original link.
  events = receiver.receive(sender.cdm(3), cdm_time(config, 3));
  EXPECT_TRUE(events.messages.empty());

  // CDM_4 discloses K_3 -> low chain of interval 2 derivable -> data out.
  events = receiver.receive(sender.cdm(4), cdm_time(config, 4));
  ASSERT_EQ(events.messages.size(), 1u);
  EXPECT_EQ(events.messages[0].message, bytes_of("lost-keys"));
  ASSERT_FALSE(events.recoveries.empty());
  EXPECT_GE(receiver.stats().low_chains_recovered_via_high, 1u);
}

TEST(MultiLevelReceiver, EftpRecoversOneIntervalSooner) {
  // Same scenario as above but with the EFTP link: K_2 (disclosed by
  // CDM_3) already anchors low chain 2.
  const auto config = test_config(crypto::LevelLink::kEftp, false);
  MultiLevelSender sender(config, bytes_of("seed"));
  MultiLevelReceiver receiver(config, sender.bootstrap(),
                              sim::LooseClock(0, 0), Rng(10));
  (void)receiver.receive(sender.cdm(1), cdm_time(config, 1));
  (void)receiver.receive(sender.cdm(2), cdm_time(config, 2));
  auto data = sender.make_data_packet(2, 3, bytes_of("lost-keys"));
  data.disclosed_interval = 0;
  data.disclosed_key = {};
  (void)receiver.receive(data, data_time(config, 2, 3));

  const auto events = receiver.receive(sender.cdm(3), cdm_time(config, 3));
  ASSERT_EQ(events.messages.size(), 1u);  // one interval earlier than original
  EXPECT_EQ(events.messages[0].message, bytes_of("lost-keys"));
}

TEST(MultiLevelReceiver, ForgedDataRejected) {
  const auto config = test_config(crypto::LevelLink::kOriginal, false);
  MultiLevelSender sender(config, bytes_of("seed"));
  MultiLevelReceiver receiver(config, sender.bootstrap(),
                              sim::LooseClock(0, 0), Rng(11));
  wire::TeslaPacket forged = sender.make_data_packet(1, 3, bytes_of("real"));
  forged.message = bytes_of("evil");
  (void)receiver.receive(forged, data_time(config, 1, 3));
  // Deliver the disclosure for (1,3) via packet (1,5).
  const auto events = receiver.receive(
      sender.make_data_packet(1, 5, bytes_of("x")), data_time(config, 1, 5));
  EXPECT_TRUE(events.messages.empty());
  EXPECT_EQ(receiver.stats().data_rejected, 1u);
}

TEST(MultiLevelReceiver, LostCdmBlocksFutureIntervalUntilRecovery) {
  // CDM_1 (carrying low commitment of interval 3) is lost entirely. Data
  // of interval 3 cannot authenticate from its own disclosures because
  // the receiver has no commitment; the high-key recovery path fixes it.
  const auto config = test_config(crypto::LevelLink::kOriginal, false);
  MultiLevelSender sender(config, bytes_of("seed"));
  MultiLevelReceiver receiver(config, sender.bootstrap(),
                              sim::LooseClock(0, 0), Rng(12));
  // Interval 1: CDM lost. Interval 2: CDM received.
  (void)receiver.receive(sender.cdm(2), cdm_time(config, 2));
  EXPECT_FALSE(receiver.low_chain_known(3));
  // Interval 3 data buffered (commitment unknown).
  auto events = receiver.receive(sender.make_data_packet(3, 3, bytes_of("m")),
                                 data_time(config, 3, 3));
  EXPECT_TRUE(events.messages.empty());
  // Under the original link, chain 3 is anchored to K_4, which CDM_5
  // discloses; CDM_3/CDM_4 are not enough.
  (void)receiver.receive(sender.cdm(3), cdm_time(config, 3));
  events = receiver.receive(sender.cdm(4), cdm_time(config, 4));
  EXPECT_FALSE(receiver.low_chain_known(3));
  EXPECT_TRUE(events.messages.empty());
  events = receiver.receive(sender.cdm(5), cdm_time(config, 5));
  EXPECT_TRUE(receiver.low_chain_known(3));
  ASSERT_EQ(events.messages.size(), 1u);
}

TEST(MultiLevelReceiver, GilbertElliottBurstRecoversViaHighChain) {
  // A bursty Gilbert–Elliott link (lossless good state, total loss in the
  // bad state) eats a run of consecutive CDMs — the correlated-loss case
  // multi-level μTESLA's high-key link exists for. Seed 1 realizes the
  // delivery pattern D D D L L D L D over CDMs 1..8: the burst swallows
  // CDM_4 (carrying chain 6's commitment), so interval-6 data must be
  // buffered until CDM_8 discloses K_7 and the high link re-anchors the
  // low chain.
  const auto config = test_config(crypto::LevelLink::kOriginal, false);
  MultiLevelSender sender(config, bytes_of("seed"));
  MultiLevelReceiver receiver(config, sender.bootstrap(),
                              sim::LooseClock(0, 0), Rng(14));
  sim::GilbertElliottChannel channel(0.5, 0.5, 0.0, 1.0);
  Rng channel_rng(1);

  std::string realized;
  MultiLevelEvents events;
  for (std::uint32_t i = 1; i <= 8; ++i) {
    const bool delivered = channel.deliver(channel_rng);
    realized += delivered ? 'D' : 'L';
    if (delivered) {
      events = receiver.receive(sender.cdm(i), cdm_time(config, i));
    }
    if (i == 5) {
      // Mid-burst: chain 6's commitment went down with CDM_4, so data of
      // interval 6 parks in the buffer instead of authenticating.
      EXPECT_FALSE(receiver.low_chain_known(6));
      const auto buffered = receiver.receive(
          sender.make_data_packet(6, 1, bytes_of("m")), data_time(config, 6, 1));
      EXPECT_TRUE(buffered.messages.empty());
    }
  }
  ASSERT_EQ(realized, "DDDLLDLD");
  // CDM_8 disclosed K_7, the anchor of low chain 6: the receiver
  // recovered the chain through the high level and released the message.
  EXPECT_TRUE(receiver.low_chain_known(6));
  EXPECT_GE(receiver.stats().low_chains_recovered_via_high, 1u);
  ASSERT_EQ(events.messages.size(), 1u);
  EXPECT_EQ(events.messages[0].message, bytes_of("m"));
}

TEST(MultiLevelReceiver, IgnoresOutOfRangeIntervals) {
  const auto config = test_config(crypto::LevelLink::kOriginal, false);
  MultiLevelSender sender(config, bytes_of("seed"));
  MultiLevelReceiver receiver(config, sender.bootstrap(),
                              sim::LooseClock(0, 0), Rng(13));
  wire::CdmPacket bogus;
  bogus.sender = 1;
  bogus.high_interval = 99;
  EXPECT_NO_THROW(receiver.receive(bogus, cdm_time(config, 1)));
  wire::TeslaPacket data;
  data.sender = 1;
  data.interval = 9999;
  EXPECT_NO_THROW(receiver.receive(data, cdm_time(config, 1)));
}

}  // namespace
}  // namespace dap::tesla

// ----------------------------------------------- bounded data buffering

namespace dap::tesla {
namespace {

TEST(MultiLevelReceiver, DataFloodCannotExhaustMemory) {
  auto config = test_config(crypto::LevelLink::kOriginal, false);
  config.data_buffers = 4;
  MultiLevelSender sender(config, bytes_of("seed"));
  MultiLevelReceiver receiver(config, sender.bootstrap(),
                              sim::LooseClock(0, 0), common::Rng(31));
  // 100 forged data packets for (1, 3) — all buffered copies must fit in
  // the per-interval reservoir.
  common::Rng rng(32);
  for (int f = 0; f < 100; ++f) {
    wire::TeslaPacket forged;
    forged.sender = config.sender_id;
    forged.interval = config.global_index(1, 3);
    forged.message = rng.bytes(32);
    forged.mac = common::InlineBytes<32>(rng.bytes(10));
    (void)receiver.receive(forged, data_time(config, 1, 3));
  }
  // The authentic packet also arrives; with 4 slots over 101 copies it
  // survives with probability ~4%, so usually the flood wins this round —
  // but memory stayed bounded and nothing forged authenticates. Packet
  // (1, 5) discloses the key of (1, 3) and drains the buffer.
  (void)receiver.receive(sender.make_data_packet(1, 3, bytes_of("real")),
                         data_time(config, 1, 3));
  (void)receiver.receive(sender.make_data_packet(1, 5, bytes_of("carrier")),
                         data_time(config, 1, 5));
  EXPECT_LE(receiver.stats().data_authenticated, 2u);
  EXPECT_GE(receiver.stats().data_rejected, config.data_buffers - 1);
}

TEST(MultiLevelReceiver, MultipleAuthenticCopiesStillAuthenticate) {
  // Benign duplicates (retransmissions) are deduplicated only by the
  // reservoir; every surviving copy verifies.
  const auto config = test_config(crypto::LevelLink::kOriginal, false);
  MultiLevelSender sender(config, bytes_of("seed"));
  MultiLevelReceiver receiver(config, sender.bootstrap(),
                              sim::LooseClock(0, 0), common::Rng(33));
  const auto packet = sender.make_data_packet(1, 3, bytes_of("dup"));
  (void)receiver.receive(packet, data_time(config, 1, 3));
  (void)receiver.receive(packet, data_time(config, 1, 3));
  // Key for (1,3) disclosed by packet (1,5).
  const auto events = receiver.receive(
      sender.make_data_packet(1, 5, bytes_of("x")), data_time(config, 1, 5));
  EXPECT_GE(events.messages.size(), 2u);  // both copies released
}

}  // namespace
}  // namespace dap::tesla
