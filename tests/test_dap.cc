// Unit tests for DAP (paper §IV, Algorithms 1-2): broadcasting order,
// μMAC storage, reservoir buffer selection, weak/strong authentication,
// security against forgery/replay, and the P = p^m property.

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dap/dap.h"
#include "sim/adversary.h"

namespace dap::protocol {
namespace {

using common::Bytes;
using common::bytes_of;
using common::Rng;

DapConfig test_config(std::size_t buffers = 4) {
  DapConfig config;
  config.chain_length = 32;
  config.buffers = buffers;
  config.schedule = sim::IntervalSchedule(0, sim::kSecond);
  return config;
}

sim::SimTime mid(std::uint32_t interval) {
  return (interval - 1) * sim::kSecond + sim::kSecond / 2;
}

DapReceiver make_receiver(const DapConfig& config, const DapSender& sender,
                          std::uint64_t seed = 1) {
  return DapReceiver(config, sender.chain().commitment(),
                     bytes_of("k-recv-local"), sim::LooseClock(0, 0),
                     Rng(seed));
}

// ------------------------------------------------------------ Algorithm 1

TEST(DapSender, AnnounceThenReveal) {
  const auto config = test_config();
  DapSender sender(config, bytes_of("seed"));
  const auto announce = sender.announce(3, bytes_of("reading"));
  EXPECT_EQ(announce.interval, 3u);
  EXPECT_EQ(announce.mac.size(), config.mac_size);
  const auto reveal = sender.reveal(3);
  EXPECT_EQ(reveal.interval, 3u);
  EXPECT_EQ(reveal.message, bytes_of("reading"));
  EXPECT_EQ(reveal.key, sender.chain().key(3));
}

TEST(DapSender, RevealBeforeAnnounceThrows) {
  DapSender sender(test_config(), bytes_of("seed"));
  EXPECT_THROW(sender.reveal(1), std::logic_error);
}

TEST(DapSender, AnnounceBoundsChecked) {
  DapSender sender(test_config(), bytes_of("seed"));
  EXPECT_THROW((void)sender.announce(0, bytes_of("m")), std::out_of_range);
  EXPECT_THROW((void)sender.announce(33, bytes_of("m")), std::out_of_range);
}

TEST(DapSender, AnnouncementOmitsMessage) {
  // The whole point of DAP's step 3: only MAC + index on the wire.
  const auto config = test_config();
  DapSender sender(config, bytes_of("seed"));
  const Bytes big_message(1000, 'x');
  const auto announce = sender.announce(1, big_message);
  const auto bits = wire::wire_bits(wire::Packet{announce});
  EXPECT_LT(bits, 8 * 100);  // nowhere near the 8000-bit message
}

// ------------------------------------------------------------ Algorithm 2

TEST(DapReceiver, HappyPathStrongAuth) {
  const auto config = test_config();
  DapSender sender(config, bytes_of("seed"));
  auto receiver = make_receiver(config, sender);
  receiver.receive(sender.announce(1, bytes_of("m1")), mid(1));
  EXPECT_EQ(receiver.buffered_records(1), 1u);
  const auto result = receiver.receive(sender.reveal(1), mid(2));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->message, bytes_of("m1"));
  EXPECT_EQ(receiver.stats().strong_auth_success, 1u);
}

TEST(DapReceiver, StreamOfIntervals) {
  const auto config = test_config();
  DapSender sender(config, bytes_of("seed"));
  auto receiver = make_receiver(config, sender);
  std::size_t authenticated = 0;
  for (std::uint32_t i = 1; i <= 20; ++i) {
    receiver.receive(sender.announce(i, bytes_of("m")), mid(i));
    if (receiver.receive(sender.reveal(i), mid(i + 1))) ++authenticated;
  }
  EXPECT_EQ(authenticated, 20u);
  EXPECT_EQ(receiver.stats().strong_auth_failures, 0u);
}

TEST(DapReceiver, LateAnnounceDiscarded) {
  // Algorithm 2 line 2: i + d < x -> discard.
  const auto config = test_config();
  DapSender sender(config, bytes_of("seed"));
  auto receiver = make_receiver(config, sender);
  receiver.receive(sender.announce(1, bytes_of("m")), mid(3));
  EXPECT_EQ(receiver.stats().announces_unsafe, 1u);
  EXPECT_EQ(receiver.buffered_records(1), 0u);
}

TEST(DapReceiver, WeakAuthRejectsForgedKey) {
  const auto config = test_config();
  DapSender sender(config, bytes_of("seed"));
  auto receiver = make_receiver(config, sender);
  receiver.receive(sender.announce(1, bytes_of("m")), mid(1));
  auto reveal = sender.reveal(1);
  reveal.key = common::InlineBytes<32>(Bytes(config.key_size, 0x42));
  EXPECT_FALSE(receiver.receive(reveal, mid(2)).has_value());
  EXPECT_EQ(receiver.stats().weak_auth_failures, 1u);
}

TEST(DapReceiver, StrongAuthRejectsTamperedMessage) {
  const auto config = test_config();
  DapSender sender(config, bytes_of("seed"));
  auto receiver = make_receiver(config, sender);
  receiver.receive(sender.announce(1, bytes_of("authentic")), mid(1));
  auto reveal = sender.reveal(1);
  reveal.message = bytes_of("tampered");
  EXPECT_FALSE(receiver.receive(reveal, mid(2)).has_value());
  EXPECT_EQ(receiver.stats().strong_auth_failures, 1u);
}

TEST(DapReceiver, RevealWithoutAnyRecordFails) {
  const auto config = test_config();
  DapSender sender(config, bytes_of("seed"));
  auto receiver = make_receiver(config, sender);
  (void)sender.announce(1, bytes_of("m"));  // never delivered
  EXPECT_FALSE(receiver.receive(sender.reveal(1), mid(2)).has_value());
  EXPECT_EQ(receiver.stats().strong_auth_failures, 1u);
}

TEST(DapReceiver, ReplayedRevealCannotDoubleAuthenticate) {
  // The buffer round is consumed by the first reveal; a replay finds no
  // records (and is harmless).
  const auto config = test_config();
  DapSender sender(config, bytes_of("seed"));
  auto receiver = make_receiver(config, sender);
  receiver.receive(sender.announce(1, bytes_of("m")), mid(1));
  ASSERT_TRUE(receiver.receive(sender.reveal(1), mid(2)).has_value());
  EXPECT_FALSE(receiver.receive(sender.reveal(1), mid(2)).has_value());
}

TEST(DapReceiver, MemoryAccountingUsesMicroRecords) {
  const auto config = test_config();
  DapSender sender(config, bytes_of("seed"));
  auto receiver = make_receiver(config, sender);
  receiver.receive(sender.announce(1, bytes_of("m")), mid(1));
  // 56 bits per record with the paper's sizes (24-bit μMAC + 32-bit idx).
  EXPECT_EQ(receiver.stored_record_bits(), 56u);
  // Versus the 280-bit message+MAC record of the paper's comparison:
  EXPECT_EQ(crypto::full_record_bits(), 5 * receiver.stored_record_bits());
}

TEST(DapReceiver, BufferCapacityEnforced) {
  const auto config = test_config(2);
  DapSender sender(config, bytes_of("seed"));
  auto receiver = make_receiver(config, sender);
  sim::FloodingForger forger(config.sender_id, config.mac_size, Rng(9));
  for (int i = 0; i < 50; ++i) receiver.receive(forger.forge(1), mid(1));
  EXPECT_EQ(receiver.buffered_records(1), 2u);
  EXPECT_EQ(receiver.stats().records_offered, 50u);
  EXPECT_LT(receiver.stats().records_stored, 50u);
}

TEST(DapReceiver, SetBuffersAffectsNewRounds) {
  const auto config = test_config(2);
  DapSender sender(config, bytes_of("seed"));
  auto receiver = make_receiver(config, sender);
  sim::FloodingForger forger(config.sender_id, config.mac_size, Rng(10));
  receiver.set_buffers(6);
  for (int i = 0; i < 50; ++i) receiver.receive(forger.forge(2), mid(2));
  EXPECT_EQ(receiver.buffered_records(2), 6u);
  EXPECT_THROW(receiver.set_buffers(0), std::invalid_argument);
}

TEST(DapReceiver, DiscardedCopiesAreNeverReMaced) {
  // The keep decision is drawn before the re-MAC: under a flood the HMAC
  // work tracks the records kept, not the copies offered.
  const auto config = test_config(4);
  DapSender sender(config, bytes_of("seed"));
  auto receiver = make_receiver(config, sender);
  sim::FloodingForger forger(config.sender_id, config.mac_size, Rng(12));
  receiver.receive(forger.forge(1), mid(1));
  const std::uint64_t* hmacs =
      obs::Registry::global().find_counter("crypto.hmac_calls");
  ASSERT_NE(hmacs, nullptr);
  const std::uint64_t hmacs_before = *hmacs;
  const std::uint64_t stored_before = receiver.stats().records_stored;
  for (int i = 0; i < 400; ++i) receiver.receive(forger.forge(1), mid(1));
  const std::uint64_t stored = receiver.stats().records_stored - stored_before;
  EXPECT_EQ(*hmacs - hmacs_before, stored);
  EXPECT_LT(stored, 100u);  // ~ m * ln(401) kept out of 400 offered
}

TEST(DapReceiver, MicroMacSizeMustFitThePackedRecord) {
  // A record is one word, μMAC << 32 | interval: at most a 32-bit μMAC.
  auto config = test_config();
  DapSender sender(config, bytes_of("seed"));
  for (const std::size_t size : {0u, 5u, 8u}) {
    config.micro_mac_size = size;
    EXPECT_THROW(make_receiver(config, sender), std::invalid_argument)
        << "size " << size;
  }
  for (const std::size_t size : {1u, 2u, 3u, 4u}) {
    config.micro_mac_size = size;
    DapSender sized_sender(config, bytes_of("seed"));
    auto receiver = make_receiver(config, sized_sender);
    receiver.receive(sized_sender.announce(1, bytes_of("m")), mid(1));
    // §VI-A accounting is unchanged: μMAC bits plus the 32-bit index.
    EXPECT_EQ(receiver.stored_record_bits(), size * 8 + 32);
    EXPECT_TRUE(receiver.receive(sized_sender.reveal(1), mid(2)).has_value())
        << "size " << size;
  }
}

// ------------------------------------------------- attack-success property

double measured_attack_success(double p, std::size_t m, int trials,
                               BufferPolicy policy, std::uint64_t seed) {
  const auto config = [&] {
    auto c = test_config(m);
    c.policy = policy;
    c.chain_length = 2;
    return c;
  }();
  Rng master(seed);
  int successes = 0;
  // The analytic P = p^m is the large-flood limit of the reservoir's
  // hypergeometric exclusion probability, so the sender redundancy is
  // chosen to keep the total flood much larger than m.
  const std::size_t authentic_copies = 40;
  const std::size_t forged =
      sim::FloodingForger::copies_for_fraction(authentic_copies, p);
  for (int t = 0; t < trials; ++t) {
    Rng trial = master.fork(static_cast<std::uint64_t>(t));
    DapSender sender(config, trial.bytes(16));
    DapReceiver receiver(config, sender.chain().commitment(),
                         trial.bytes(16), sim::LooseClock(0, 0),
                         trial.fork(1));
    sim::FloodingForger forger(config.sender_id, config.mac_size,
                               trial.fork(2));
    const auto authentic = sender.announce(1, bytes_of("m"));
    std::vector<wire::MacAnnounce> flood;
    flood.reserve(authentic_copies + forged);
    for (std::size_t k = 0; k < authentic_copies; ++k) {
      flood.push_back(authentic);
    }
    for (std::size_t k = 0; k < forged; ++k) flood.push_back(forger.forge(1));
    for (std::size_t k = flood.size(); k > 1; --k) {
      const auto j = static_cast<std::size_t>(trial.uniform(0, k - 1));
      std::swap(flood[k - 1], flood[j]);
    }
    for (const auto& packet : flood) receiver.receive(packet, mid(1));
    if (!receiver.receive(sender.reveal(1), mid(2)).has_value()) {
      ++successes;
    }
  }
  return static_cast<double>(successes) / trials;
}

class AttackSuccess
    : public ::testing::TestWithParam<std::pair<double, std::size_t>> {};

TEST_P(AttackSuccess, MatchesAnalyticPm) {
  const auto [p, m] = GetParam();
  const double measured = measured_attack_success(
      p, m, 2500, BufferPolicy::kReservoir, 7777);
  const double analytic = std::pow(p, static_cast<double>(m));
  EXPECT_NEAR(measured, analytic, 0.035)
      << "p=" << p << " m=" << m;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AttackSuccess,
    ::testing::Values(std::make_pair(0.5, std::size_t{1}),
                      std::make_pair(0.5, std::size_t{3}),
                      std::make_pair(0.8, std::size_t{2}),
                      std::make_pair(0.8, std::size_t{4}),
                      std::make_pair(0.9, std::size_t{4}),
                      std::make_pair(0.9, std::size_t{8})));

TEST(AttackSuccessPolicy, NaiveDropLosesToEarlyFlood) {
  // With naive-drop buffers, an attacker flooding before the authentic
  // copy wins deterministically once the flood covers all m slots.
  const auto config = [&] {
    auto c = test_config(4);
    c.policy = BufferPolicy::kNaiveDrop;
    c.chain_length = 2;
    return c;
  }();
  DapSender sender(config, bytes_of("seed"));
  auto receiver = make_receiver(config, sender);
  sim::FloodingForger forger(config.sender_id, config.mac_size, Rng(11));
  for (int i = 0; i < 4; ++i) receiver.receive(forger.forge(1), mid(1));
  receiver.receive(sender.announce(1, bytes_of("m")), mid(1));  // too late
  EXPECT_FALSE(receiver.receive(sender.reveal(1), mid(2)).has_value());
}

TEST(AttackSuccessPolicy, ReservoirSurvivesEarlyFlood) {
  // Same early-burst attack against the reservoir policy: the authentic
  // copy (arriving last) still survives with probability m/k; over many
  // trials success is ~ m/(flood+1), never 0.
  int survived = 0;
  const int trials = 2000;
  Rng master(12);
  for (int t = 0; t < trials; ++t) {
    const auto config = [&] {
      auto c = test_config(4);
      c.chain_length = 2;
      return c;
    }();
    Rng trial = master.fork(static_cast<std::uint64_t>(t));
    DapSender sender(config, trial.bytes(16));
    DapReceiver receiver(config, sender.chain().commitment(),
                         trial.bytes(16), sim::LooseClock(0, 0),
                         trial.fork(1));
    sim::FloodingForger forger(config.sender_id, config.mac_size,
                               trial.fork(2));
    for (int i = 0; i < 16; ++i) receiver.receive(forger.forge(1), mid(1));
    receiver.receive(sender.announce(1, bytes_of("m")), mid(1));
    if (receiver.receive(sender.reveal(1), mid(2)).has_value()) ++survived;
  }
  // Authentic is copy 17 of 17 into 4 slots: P(kept) = 4/17 ~ 0.235.
  EXPECT_NEAR(survived / static_cast<double>(trials), 4.0 / 17.0, 0.03);
}

TEST(DapReceiver, MoreBuffersMonotonicallyHelp) {
  double previous = 1.1;
  for (std::size_t m : {1u, 2u, 4u, 8u}) {
    const double success = measured_attack_success(
        0.85, m, 3000, BufferPolicy::kReservoir, 555);
    EXPECT_LT(success, previous) << "m=" << m;
    previous = success;
  }
}

TEST(DapReceiver, RejectsBadConstruction) {
  const auto config = test_config();
  DapSender sender(config, bytes_of("seed"));
  EXPECT_THROW(DapReceiver(config, Bytes{}, bytes_of("s"),
                           sim::LooseClock(0, 0), Rng(1)),
               std::invalid_argument);
  EXPECT_THROW(DapReceiver(config, sender.chain().commitment(), Bytes{},
                           sim::LooseClock(0, 0), Rng(1)),
               std::invalid_argument);
  auto zero_buffers = config;
  zero_buffers.buffers = 0;
  EXPECT_THROW(DapReceiver(zero_buffers, sender.chain().commitment(),
                           bytes_of("s"), sim::LooseClock(0, 0), Rng(1)),
               std::invalid_argument);
}

TEST(DapReceiver, MicroMacCollisionRateBounded) {
  // A forged record matches the expected μMAC with probability 2^-24;
  // with 24-bit tags and a few thousand forged records per round the
  // false-accept probability stays negligible. Sanity-check that a flood
  // of forged records does not accidentally authenticate a never-sent
  // message over many trials.
  const auto config = test_config(8);
  int false_accepts = 0;
  Rng master(13);
  for (int t = 0; t < 300; ++t) {
    Rng trial = master.fork(static_cast<std::uint64_t>(t));
    DapSender sender(config, trial.bytes(16));
    DapReceiver receiver(config, sender.chain().commitment(),
                         trial.bytes(16), sim::LooseClock(0, 0),
                         trial.fork(1));
    sim::FloodingForger forger(config.sender_id, config.mac_size,
                               trial.fork(2));
    for (int i = 0; i < 8; ++i) receiver.receive(forger.forge(1), mid(1));
    // The reveal is authentic but its announce was never stored: only a
    // μMAC collision could authenticate it.
    (void)sender.announce(1, bytes_of("never-delivered"));
    if (receiver.receive(sender.reveal(1), mid(2)).has_value()) {
      ++false_accepts;
    }
  }
  EXPECT_EQ(false_accepts, 0);
}

}  // namespace
}  // namespace dap::protocol

// --------------------------------------------------- multi-message streams

namespace dap::protocol {
namespace {

TEST(DapMultiMessage, SeveralMessagesPerIntervalAuthenticate) {
  const auto config = test_config(8);
  DapSender sender(config, bytes_of("seed"));
  auto receiver = make_receiver(config, sender);
  // Fig. 1's P_{i,1..m}: three packets share interval 1's key.
  for (const char* text : {"reading-a", "reading-b", "reading-c"}) {
    receiver.receive(sender.announce(1, bytes_of(text)), mid(1));
  }
  EXPECT_EQ(sender.announced_count(1), 3u);
  EXPECT_EQ(receiver.buffered_records(1), 3u);
  std::size_t authenticated = 0;
  for (std::size_t k = 0; k < 3; ++k) {
    if (receiver.receive(sender.reveal(1, k), mid(2))) ++authenticated;
  }
  EXPECT_EQ(authenticated, 3u);
}

TEST(DapMultiMessage, EachRevealConsumesOnlyItsRecord) {
  const auto config = test_config(8);
  DapSender sender(config, bytes_of("seed"));
  auto receiver = make_receiver(config, sender);
  receiver.receive(sender.announce(1, bytes_of("a")), mid(1));
  receiver.receive(sender.announce(1, bytes_of("b")), mid(1));
  ASSERT_TRUE(receiver.receive(sender.reveal(1, 0), mid(2)).has_value());
  EXPECT_EQ(receiver.buffered_records(1), 1u);
  // Replay of the same reveal fails; the other message still works.
  EXPECT_FALSE(receiver.receive(sender.reveal(1, 0), mid(2)).has_value());
  EXPECT_TRUE(receiver.receive(sender.reveal(1, 1), mid(2)).has_value());
}

TEST(DapMultiMessage, FloodStealsSlotsFromTheWholeInterval) {
  // Multiple authentic messages share the m buffers with the flood: with
  // m = 2 and three authentic announcements plus a flood, not all three
  // can survive.
  const auto config = test_config(2);
  DapSender sender(config, bytes_of("seed"));
  auto receiver = make_receiver(config, sender);
  for (const char* text : {"a", "b", "c"}) {
    receiver.receive(sender.announce(1, bytes_of(text)), mid(1));
  }
  std::size_t authenticated = 0;
  for (std::size_t k = 0; k < 3; ++k) {
    if (receiver.receive(sender.reveal(1, k), mid(2))) ++authenticated;
  }
  EXPECT_LE(authenticated, 2u);
}

TEST(DapMultiMessage, RevealBoundsChecked) {
  DapSender sender(test_config(), bytes_of("seed"));
  (void)sender.announce(1, bytes_of("only-one"));
  EXPECT_NO_THROW((void)sender.reveal(1, 0));
  EXPECT_THROW((void)sender.reveal(1, 1), std::logic_error);
  EXPECT_EQ(sender.announced_count(2), 0u);
}

TEST(DapMultiMessage, StaleRoundsArePruned) {
  const auto config = test_config(4);
  DapSender sender(config, bytes_of("seed"));
  auto receiver = make_receiver(config, sender);
  receiver.receive(sender.announce(1, bytes_of("old")), mid(1));
  EXPECT_EQ(receiver.buffered_records(1), 1u);
  // An announcement for interval 3 makes interval 1's records (key long
  // public, d = 1) unusable; they are dropped.
  receiver.receive(sender.announce(3, bytes_of("new")), mid(3));
  EXPECT_EQ(receiver.buffered_records(1), 0u);
  EXPECT_EQ(receiver.buffered_records(3), 1u);
}

// ------------------------------------------- batched reveal verification

TEST(DapBatchReveal, DrainMatchesSerialReceive) {
  const auto config = test_config(8);
  DapSender sender(config, bytes_of("seed"));
  auto serial = make_receiver(config, sender, /*seed=*/5);
  auto batched = make_receiver(config, sender, /*seed=*/5);
  for (const char* text : {"a", "b", "c", "d"}) {
    const auto announce = sender.announce(1, bytes_of(text));
    serial.receive(announce, mid(1));
    batched.receive(announce, mid(1));
  }
  std::vector<std::optional<tesla::AuthenticatedMessage>> serial_out;
  for (std::size_t k = 0; k < 4; ++k) {
    const auto reveal = sender.reveal(1, k);
    serial_out.push_back(serial.receive(reveal, mid(2)));
    batched.enqueue(reveal);
  }
  EXPECT_EQ(batched.pending_reveals(), 4u);
  const auto batch_out = batched.drain_pending_batch(mid(2));
  EXPECT_EQ(batched.pending_reveals(), 0u);
  ASSERT_EQ(batch_out.size(), serial_out.size());
  for (std::size_t k = 0; k < serial_out.size(); ++k) {
    ASSERT_EQ(batch_out[k].has_value(), serial_out[k].has_value()) << k;
    if (batch_out[k]) {
      EXPECT_EQ(batch_out[k]->message, serial_out[k]->message);
      EXPECT_EQ(batch_out[k]->interval, serial_out[k]->interval);
    }
  }
  EXPECT_EQ(batched.stats().strong_auth_success,
            serial.stats().strong_auth_success);
}

TEST(DapBatchReveal, SharedIntervalDerivesKeyOnce) {
  // 33 same-interval reveals: the serial path derives F'(K_1) once per
  // reveal; the batch drain derives it once per interval (>= 5x fewer at
  // batch sizes >= 32 — the batching KPI).
  const auto config = test_config(/*buffers=*/40);
  DapSender sender(config, bytes_of("seed"));
  auto serial = make_receiver(config, sender, /*seed=*/5);
  auto batched = make_receiver(config, sender, /*seed=*/5);
  for (std::size_t k = 0; k < 33; ++k) {
    const auto announce =
        sender.announce(1, bytes_of(std::string("m") + std::to_string(k)));
    serial.receive(announce, mid(1));
    batched.receive(announce, mid(1));
  }
  std::size_t serial_ok = 0;
  for (std::size_t k = 0; k < 33; ++k) {
    const auto reveal = sender.reveal(1, k);
    if (serial.receive(reveal, mid(2))) ++serial_ok;
    batched.enqueue(reveal);
  }
  auto& reg = obs::Registry::global();
  const auto midstate_hits = reg.counter("crypto.hmac_midstate_hits");
  const std::uint64_t hits_before = reg.value(midstate_hits);
  const auto batch_out = batched.drain_pending_batch(mid(2));
  // The drain's 33 MACs all reuse the interval key's precomputed
  // ipad/opad midstates instead of recomputing the pads per MAC.
  EXPECT_GE(reg.value(midstate_hits), hits_before + 33);
  std::size_t batch_ok = 0;
  for (const auto& r : batch_out) {
    if (r) ++batch_ok;
  }
  EXPECT_EQ(serial_ok, 33u);
  EXPECT_EQ(batch_ok, 33u);
  EXPECT_EQ(serial.stats().mac_key_derivations, 33u);
  EXPECT_EQ(batched.stats().mac_key_derivations, 1u);
  EXPECT_GE(serial.stats().mac_key_derivations,
            5 * batched.stats().mac_key_derivations);
}

TEST(DapBatchReveal, OutcomesAreNotCachedAcrossDuplicates) {
  // Two reveals of the same record in one batch: the first consumes the
  // record, the second must fail — a correct batch layer caches only the
  // derived key, never the accept/reject outcome.
  const auto config = test_config(8);
  DapSender sender(config, bytes_of("seed"));
  auto receiver = make_receiver(config, sender);
  receiver.receive(sender.announce(1, bytes_of("once")), mid(1));
  const auto reveal = sender.reveal(1, 0);
  receiver.enqueue(reveal);
  receiver.enqueue(reveal);
  const auto out = receiver.drain_pending_batch(mid(2));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(out[0].has_value());
  EXPECT_FALSE(out[1].has_value());
  EXPECT_EQ(receiver.stats().mac_key_derivations, 1u);
}

TEST(DapBatchReveal, CrashRestartDropsPendingBacklog) {
  const auto config = test_config(8);
  DapSender sender(config, bytes_of("seed"));
  auto receiver = make_receiver(config, sender);
  receiver.receive(sender.announce(1, bytes_of("m")), mid(1));
  receiver.enqueue(sender.reveal(1, 0));
  EXPECT_EQ(receiver.pending_reveals(), 1u);
  receiver.crash_restart(mid(1));
  EXPECT_EQ(receiver.pending_reveals(), 0u);
  EXPECT_TRUE(receiver.drain_pending_batch(mid(2)).empty());
}

}  // namespace
}  // namespace dap::protocol
