// Unit tests for src/sim: event queue ordering, interval schedules,
// channel models, loose clocks, broadcast medium, adversaries, metrics.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/adversary.h"
#include "sim/channel.h"
#include "sim/clock_model.h"
#include "sim/event_queue.h"
#include "sim/faults.h"
#include "sim/medium.h"
#include "sim/time.h"

namespace dap::sim {
namespace {

/// A counter of the medium's own registry by name (0 when unregistered).
std::uint64_t count(const Medium& medium, std::string_view name) {
  const std::uint64_t* value = medium.registry().find_counter(name);
  return value == nullptr ? 0 : *value;
}

using common::Bytes;
using common::Rng;

// ----------------------------------------------------------- EventQueue

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, TiesBreakInSchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(100, [&order, i] { order.push_back(i); });
  }
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, EventsMayScheduleMoreEvents) {
  EventQueue q;
  std::vector<SimTime> times;
  q.schedule_at(5, [&] {
    times.push_back(q.now());
    q.schedule_in(10, [&] { times.push_back(q.now()); });
  });
  q.run();
  EXPECT_EQ(times, (std::vector<SimTime>{5, 15}));
}

TEST(EventQueue, RunUntilStopsAtHorizon) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(10, [&] { ++fired; });
  q.schedule_at(20, [&] { ++fired; });
  q.run_until(15);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 15u);
  EXPECT_EQ(q.pending(), 1u);
  q.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RunUntilHorizonIsInclusive) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(15, [&] { ++fired; });
  q.run_until(15);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 15u);
}

TEST(EventQueue, RunUntilFiresWorkScheduledAtTheHorizonDuringTheRun) {
  // An event inside the run schedules new work at exactly `until`; the
  // documented contract is that it fires in the same call — including a
  // chain of same-time events scheduled by each other at the horizon.
  EventQueue q;
  std::vector<SimTime> times;
  q.schedule_at(10, [&] {
    times.push_back(q.now());
    q.schedule_at(15, [&] {
      times.push_back(q.now());
      q.schedule_at(15, [&] { times.push_back(q.now()); });
    });
    q.schedule_at(16, [&] { times.push_back(q.now()); });  // beyond: queued
  });
  q.run_until(15);
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15, 15}));
  EXPECT_EQ(q.now(), 15u);
  EXPECT_EQ(q.pending(), 1u);  // the t=16 event survives the horizon
  q.run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15, 15, 16}));
}

TEST(EventQueue, RunUntilAdvancesNowPastAQuietQueue) {
  EventQueue q;
  q.schedule_at(3, [] {});
  q.run_until(50);
  EXPECT_EQ(q.now(), 50u);  // horizon reached even though events ended at 3
  q.run_until(40);          // never moves now() backwards
  EXPECT_EQ(q.now(), 50u);
}

TEST(EventQueue, RejectsPastAndEmptyActions) {
  EventQueue q;
  q.schedule_at(10, [] {});
  q.run();
  EXPECT_THROW(q.schedule_at(5, [] {}), std::invalid_argument);
  EXPECT_THROW(q.schedule_at(20, {}), std::invalid_argument);
}

TEST(EventQueue, StepReturnsFalseWhenEmpty) {
  EventQueue q;
  EXPECT_FALSE(q.step());
  EXPECT_TRUE(q.empty());
}

// ----------------------------------------------------- IntervalSchedule

TEST(IntervalSchedule, MapsTimesToIntervals) {
  const IntervalSchedule sched(1000, 100);
  EXPECT_EQ(sched.interval_at(999), 0u);   // before start
  EXPECT_EQ(sched.interval_at(1000), 1u);
  EXPECT_EQ(sched.interval_at(1099), 1u);
  EXPECT_EQ(sched.interval_at(1100), 2u);
  EXPECT_EQ(sched.interval_start(1), 1000u);
  EXPECT_EQ(sched.interval_end(1), 1100u);
  EXPECT_EQ(sched.interval_start(3), 1200u);
}

TEST(IntervalSchedule, ZeroDurationClampsToOne) {
  const IntervalSchedule sched(0, 0);
  EXPECT_EQ(sched.duration(), 1u);
}

// --------------------------------------------------------------- Channel

TEST(Channel, PerfectDeliversAlways) {
  PerfectChannel ch;
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(ch.deliver(rng));
}

TEST(Channel, BernoulliLossRateMatches) {
  BernoulliChannel ch(0.3);
  Rng rng(2);
  int delivered = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (ch.deliver(rng)) ++delivered;
  }
  EXPECT_NEAR(static_cast<double>(delivered) / n, 0.7, 0.01);
}

TEST(Channel, BernoulliExtremes) {
  Rng rng(3);
  BernoulliChannel never(1.0);
  BernoulliChannel always(0.0);
  EXPECT_FALSE(never.deliver(rng));
  EXPECT_TRUE(always.deliver(rng));
  EXPECT_THROW(BernoulliChannel(1.5), std::invalid_argument);
  EXPECT_THROW(BernoulliChannel(-0.1), std::invalid_argument);
}

TEST(Channel, GilbertElliottStationaryLoss) {
  // p_gb = 0.1, p_bg = 0.3 -> pi_bad = 0.25; loss = 0.25*0.8 + 0.75*0.01.
  GilbertElliottChannel ch(0.1, 0.3, 0.01, 0.8);
  EXPECT_NEAR(ch.stationary_loss(), 0.25 * 0.8 + 0.75 * 0.01, 1e-12);
  Rng rng(4);
  int lost = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    if (!ch.deliver(rng)) ++lost;
  }
  EXPECT_NEAR(static_cast<double>(lost) / n, ch.stationary_loss(), 0.01);
}

TEST(Channel, GilbertElliottProducesBursts) {
  // With sticky states, consecutive losses should be far more likely
  // than under independent loss at the same average rate.
  GilbertElliottChannel ch(0.02, 0.1, 0.0, 1.0);
  Rng rng(5);
  int transitions = 0;  // loss->delivery or delivery->loss
  int losses = 0;
  bool last = true;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const bool ok = ch.deliver(rng);
    if (!ok) ++losses;
    if (ok != last) ++transitions;
    last = ok;
  }
  const double loss_rate = static_cast<double>(losses) / n;
  const double expected_transitions_if_independent =
      2.0 * loss_rate * (1.0 - loss_rate) * n;
  EXPECT_LT(transitions, expected_transitions_if_independent / 2);
}

TEST(Channel, GilbertElliottValidation) {
  EXPECT_THROW(GilbertElliottChannel(0.0, 0.0, 0.1, 0.9),
               std::invalid_argument);
  EXPECT_THROW(GilbertElliottChannel(1.2, 0.1, 0.1, 0.9),
               std::invalid_argument);
}

TEST(Channel, CloneResetsState) {
  GilbertElliottChannel ch(1.0, 0.0, 0.0, 1.0);  // jumps to BAD immediately
  Rng rng(6);
  (void)ch.deliver(rng);
  EXPECT_TRUE(ch.in_bad_state());
  auto fresh = ch.clone();
  auto* ge = dynamic_cast<GilbertElliottChannel*>(fresh.get());
  ASSERT_NE(ge, nullptr);
  EXPECT_FALSE(ge->in_bad_state());
}

// ------------------------------------------------------------ LooseClock

TEST(LooseClock, OffsetApplied) {
  const LooseClock ahead(500, 1000);
  const LooseClock behind(-500, 1000);
  EXPECT_EQ(ahead.local_time(10000), 10500u);
  EXPECT_EQ(behind.local_time(10000), 9500u);
  EXPECT_EQ(behind.local_time(100), 0u);  // clamped at zero
}

TEST(LooseClock, RejectsExcessiveOffset) {
  EXPECT_THROW(LooseClock(2000, 1000), std::invalid_argument);
  EXPECT_THROW(LooseClock(-2000, 1000), std::invalid_argument);
}

TEST(LooseClock, RandomWithinBound) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    const LooseClock clock = LooseClock::random(rng, 250);
    EXPECT_LE(clock.offset(), 250);
    EXPECT_GE(clock.offset(), -250);
  }
}

TEST(LooseClock, PacketSafetyCheck) {
  const IntervalSchedule sched(0, 1000);
  const LooseClock clock(0, 100);
  // Interval 5's key is disclosed at interval 5 + 2 = start 6000.
  // At local 5000 with 200us total slack -> 5200 < 6000: safe.
  EXPECT_TRUE(clock.packet_safe(5, 2, 5000, sched));
  // At local 5900 -> 6100 >= 6000: unsafe.
  EXPECT_FALSE(clock.packet_safe(5, 2, 5900, sched));
}

TEST(LooseClock, PerfectSyncBoundary) {
  const IntervalSchedule sched(0, 1000);
  const LooseClock clock(0, 0);
  EXPECT_TRUE(clock.packet_safe(1, 1, 999, sched));
  EXPECT_FALSE(clock.packet_safe(1, 1, 1000, sched));
}

// ---------------------------------------------------------------- Medium

wire::MacAnnounce make_announce(wire::NodeId sender, std::uint32_t interval) {
  wire::MacAnnounce p;
  p.sender = sender;
  p.interval = interval;
  p.mac = common::InlineBytes<32>(Bytes(10, 0x42));
  return p;
}

TEST(Medium, DeliversToAllLinks) {
  EventQueue q;
  Rng rng(10);
  Medium medium(q, rng);
  int received_a = 0, received_b = 0;
  medium.attach([&](const wire::Packet&, SimTime) { ++received_a; },
                std::make_unique<PerfectChannel>());
  medium.attach([&](const wire::Packet&, SimTime) { ++received_b; },
                std::make_unique<PerfectChannel>());
  medium.broadcast(wire::Packet{make_announce(1, 1)});
  q.run();
  EXPECT_EQ(received_a, 1);
  EXPECT_EQ(received_b, 1);

  // Every packet kind arrives equal to what was broadcast, on a plain
  // link and as both copies on a duplicating one.
  const Bytes blob = common::bytes_of("payload");
  const common::InlineBytes<32> tag(Bytes(10, 0x5a));
  const std::vector<wire::Packet> sent = {
      wire::TeslaPacket{2, 3, blob, tag, 1, tag},
      make_announce(2, 4),
      wire::MessageReveal{2, 5, blob, tag},
      wire::KeyDisclosure{2, 6, tag},
      wire::CdmPacket{2, 7, blob, blob, tag, tag},
      wire::BootstrapPacket{2, 1, kSecond, blob, blob, blob},
  };
  Medium kinds(q, rng);
  std::vector<wire::Packet> plain;
  std::vector<wire::Packet> doubled;
  kinds.attach([&](const wire::Packet& p, SimTime) { plain.push_back(p); },
               std::make_unique<PerfectChannel>());
  kinds.attach([&](const wire::Packet& p, SimTime) { doubled.push_back(p); },
               std::make_unique<DuplicateChannel>(
                   std::make_unique<PerfectChannel>(), 1.0));
  for (const wire::Packet& p : sent) kinds.broadcast(p);
  q.run();
  EXPECT_EQ(plain, sent);
  ASSERT_EQ(doubled.size(), 2 * sent.size());
  for (std::size_t i = 0; i < doubled.size(); ++i) {
    EXPECT_EQ(doubled[i], sent[i / 2]) << "copy " << i;
  }
}

TEST(Medium, RespectsLatency) {
  EventQueue q;
  Rng rng(11);
  Medium medium(q, rng);
  SimTime arrival = 0;
  medium.attach([&](const wire::Packet&, SimTime t) { arrival = t; },
                std::make_unique<PerfectChannel>(), 2500);
  medium.broadcast(wire::Packet{make_announce(1, 1)});
  q.run();
  EXPECT_EQ(arrival, 2500u);
}

TEST(Medium, LossyLinkDropsFrames) {
  EventQueue q;
  Rng rng(12);
  Medium medium(q, rng);
  int received = 0;
  medium.attach([&](const wire::Packet&, SimTime) { ++received; },
                std::make_unique<BernoulliChannel>(0.5));
  for (int i = 0; i < 1000; ++i) {
    medium.broadcast(wire::Packet{make_announce(1, 1)});
  }
  q.run();
  EXPECT_GT(received, 350);
  EXPECT_LT(received, 650);
  EXPECT_EQ(count(medium, "medium.frames_lost"),
            1000u - static_cast<unsigned>(received));
}

TEST(Medium, TracksBandwidthBySender) {
  EventQueue q;
  Rng rng(14);
  Medium medium(q, rng);
  medium.attach([](const wire::Packet&, SimTime) {},
                std::make_unique<PerfectChannel>());
  const wire::Packet p1{make_announce(1, 1)};
  const wire::Packet p2{make_announce(2, 1)};
  medium.broadcast(p1);
  medium.broadcast(p1);
  medium.broadcast(p2);
  q.run();
  EXPECT_EQ(medium.total_bits(),
            2 * wire::wire_bits(p1) + wire::wire_bits(p2));
}

TEST(Medium, RejectsNullAttachArguments) {
  EventQueue q;
  Rng rng(15);
  Medium medium(q, rng);
  EXPECT_THROW(medium.attach(nullptr, std::make_unique<PerfectChannel>()),
               std::invalid_argument);
  EXPECT_THROW(
      medium.attach([](const wire::Packet&, SimTime) {}, nullptr),
      std::invalid_argument);
}

// ------------------------------------------------------------- Adversary

TEST(Adversary, FloodingForgerImpersonatesVictim) {
  sim::FloodingForger forger(7, 10, Rng(16));
  const auto packet = forger.forge(3);
  EXPECT_EQ(packet.sender, 7u);
  EXPECT_EQ(packet.interval, 3u);
  EXPECT_EQ(packet.mac.size(), 10u);
}

TEST(Adversary, ForgedMacsAreDistinct) {
  sim::FloodingForger forger(7, 10, Rng(17));
  const auto a = forger.forge(1);
  const auto b = forger.forge(1);
  EXPECT_NE(a.mac, b.mac);
  EXPECT_EQ(forger.packets_forged(), 2u);
}

TEST(Adversary, FloodInjectsIntoMedium) {
  EventQueue q;
  Rng rng(18);
  Medium medium(q, rng);
  int received = 0;
  medium.attach([&](const wire::Packet&, SimTime) { ++received; },
                std::make_unique<PerfectChannel>());
  sim::FloodingForger forger(1, 10, rng.fork(1));
  forger.flood(medium, 2, 25);
  q.run();
  EXPECT_EQ(received, 25);
}

TEST(Adversary, CopiesForFraction) {
  using FF = sim::FloodingForger;
  EXPECT_EQ(FF::copies_for_fraction(1, 0.0), 0u);
  EXPECT_EQ(FF::copies_for_fraction(1, 0.5), 1u);
  EXPECT_EQ(FF::copies_for_fraction(1, 0.8), 4u);
  EXPECT_EQ(FF::copies_for_fraction(2, 0.8), 8u);
  EXPECT_EQ(FF::copies_for_fraction(1, 0.9), 9u);
  EXPECT_THROW((void)FF::copies_for_fraction(1, 1.0), std::invalid_argument);
  EXPECT_THROW((void)FF::copies_for_fraction(1, -0.1), std::invalid_argument);
}

TEST(Adversary, CopiesForFractionHitsTarget) {
  for (double p : {0.3, 0.5, 0.8, 0.95}) {
    const std::size_t legit = 4;
    const std::size_t forged =
        sim::FloodingForger::copies_for_fraction(legit, p);
    const double realized =
        static_cast<double>(forged) / static_cast<double>(forged + legit);
    EXPECT_NEAR(realized, p, 0.05) << "p " << p;
  }
}

TEST(Adversary, KeyGuessForgerProducesWrongKeys) {
  sim::KeyGuessForger forger(1, 10, Rng(20));
  const auto a = forger.forge_reveal(1, common::bytes_of("evil"));
  const auto b = forger.forge_reveal(1, common::bytes_of("evil"));
  EXPECT_EQ(a.message, common::bytes_of("evil"));
  EXPECT_EQ(a.key.size(), 10u);
  EXPECT_NE(a.key, b.key);
}

// --------------------------------------------------------------- Metrics
// A Medium's own registry, as the crowdsensing campaign example prints it.

TEST(Metrics, CountersAccumulate) {
  EventQueue q;
  Rng rng(40);
  Medium medium(q, rng);
  obs::Registry& reg = medium.registry();
  reg.add(reg.counter("x"));
  reg.add(reg.counter("x"), 4);
  EXPECT_EQ(count(medium, "x"), 5u);
  EXPECT_EQ(reg.find_counter("missing"), nullptr);
}

TEST(Metrics, RatesAndStats) {
  EventQueue q;
  Rng rng(41);
  Medium medium(q, rng);
  obs::Registry& reg = medium.registry();
  reg.mark(reg.rate("auth"), true);
  reg.mark(reg.rate("auth"), false);
  ASSERT_NE(reg.find_rate("auth"), nullptr);
  EXPECT_DOUBLE_EQ(reg.find_rate("auth")->rate(), 0.5);
  reg.observe(reg.histogram("latency"), 2.0);
  reg.observe(reg.histogram("latency"), 4.0);
  ASSERT_NE(reg.find_histogram("latency"), nullptr);
  EXPECT_DOUBLE_EQ(reg.find_histogram("latency")->moments().mean(), 3.0);
  EXPECT_EQ(reg.find_rate("nope"), nullptr);
  EXPECT_EQ(reg.find_histogram("nope"), nullptr);
}

TEST(Metrics, ReportMentionsAllEntries) {
  EventQueue q;
  Rng rng(42);
  Medium medium(q, rng);
  medium.attach([](const wire::Packet&, SimTime) {},
                std::make_unique<PerfectChannel>());
  medium.broadcast(wire::Packet{make_announce(1, 1)});
  q.run();
  obs::Registry& reg = medium.registry();
  reg.add(reg.counter("counter.a"), 3);
  reg.mark(reg.rate("rate.b"), true);
  reg.observe(reg.histogram("stat.c"), 1.0);
  const std::string report = reg.report(/*skip_zero_counters=*/true);
  EXPECT_NE(report.find("counter.a = 3"), std::string::npos) << report;
  EXPECT_NE(report.find("medium.broadcasts = 1"), std::string::npos);
  EXPECT_NE(report.find("rate.b"), std::string::npos);
  EXPECT_NE(report.find("stat.c"), std::string::npos);
  // The medium registers its counters at construction; the ones that
  // never moved stay out of the report instead of printing "= 0".
  EXPECT_NE(reg.report().find("medium.frames_lost = 0"), std::string::npos);
  EXPECT_EQ(report.find("medium.frames_lost"), std::string::npos) << report;
  EXPECT_EQ(report.find("= 0"), std::string::npos) << report;
}

}  // namespace
}  // namespace dap::sim

// ----------------------------------------------------------- TokenBucket

namespace dap::sim {
namespace {

TEST(TokenBucket, StartsFullAndConsumes) {
  TokenBucket bucket(1000.0, 500.0);
  EXPECT_TRUE(bucket.try_consume(500, 0));
  EXPECT_FALSE(bucket.try_consume(1, 0));
}

TEST(TokenBucket, RefillsAtRate) {
  TokenBucket bucket(1000.0, 500.0);  // 1000 bits/s
  ASSERT_TRUE(bucket.try_consume(500, 0));
  // After 100 ms: 100 bits accrued.
  EXPECT_FALSE(bucket.try_consume(101, 100 * kMillisecond));
  EXPECT_TRUE(bucket.try_consume(100, 100 * kMillisecond));
  // After a long time: capped at burst.
  EXPECT_NEAR(bucket.available(100 * kSecond), 500.0, 1e-6);
}

TEST(TokenBucket, FailedConsumeKeepsTokens) {
  TokenBucket bucket(1000.0, 100.0);
  EXPECT_FALSE(bucket.try_consume(200, 0));
  EXPECT_TRUE(bucket.try_consume(100, 0));
}

TEST(TokenBucket, RejectsBadArgumentsAndBackwardTime) {
  EXPECT_THROW(TokenBucket(0.0, 100.0), std::invalid_argument);
  EXPECT_THROW(TokenBucket(100.0, 0.5), std::invalid_argument);
  TokenBucket bucket(100.0, 100.0);
  ASSERT_TRUE(bucket.try_consume(10, kSecond));
  EXPECT_THROW(bucket.try_consume(10, 0), std::invalid_argument);
}

TEST(TokenBucket, LongRunThroughputMatchesRate) {
  TokenBucket bucket(10000.0, 1000.0);  // 10 kbit/s
  std::uint64_t sent_bits = 0;
  for (SimTime t = 0; t < 10 * kSecond; t += 10 * kMillisecond) {
    if (bucket.try_consume(200, t)) sent_bits += 200;
  }
  // 10 seconds at 10 kbit/s plus the initial burst.
  EXPECT_NEAR(static_cast<double>(sent_bits), 10 * 10000.0 + 1000.0, 600.0);
}

TEST(Medium, RateLimitDropsExcessFrames) {
  EventQueue queue;
  common::Rng rng(21);
  Medium medium(queue, rng);
  int received = 0;
  medium.attach([&](const wire::Packet&, SimTime) { ++received; },
                std::make_unique<PerfectChannel>());
  wire::MacAnnounce p;
  p.sender = 5;
  p.interval = 1;
  p.mac = common::InlineBytes<32>(common::Bytes(10, 1));
  const auto bits = static_cast<double>(wire::wire_bits(wire::Packet{p}));
  // Allow exactly 3 frames of burst, negligible refill.
  medium.set_rate_limit(5, 1.0, bits * 3);
  int accepted = 0;
  for (int i = 0; i < 10; ++i) {
    if (medium.broadcast(wire::Packet{p})) ++accepted;
  }
  queue.run();
  EXPECT_EQ(accepted, 3);
  EXPECT_EQ(received, 3);
  EXPECT_EQ(medium.rate_limited_drops(5), 7u);
  EXPECT_EQ(count(medium, "medium.rate_limited"), 7u);
}

TEST(Medium, RateLimitEnforcesBandwidthFraction) {
  // Attacker capped at 4x the sender's rate -> forged fraction on the
  // medium converges to ~0.8 no matter how hard it floods.
  EventQueue queue;
  common::Rng rng(22);
  Medium medium(queue, rng);
  medium.attach([](const wire::Packet&, SimTime) {},
                std::make_unique<PerfectChannel>());
  wire::MacAnnounce legit;
  legit.sender = 1;
  legit.interval = 1;
  legit.mac = common::InlineBytes<32>(common::Bytes(10, 1));
  wire::MacAnnounce forged = legit;
  forged.sender = 2;
  const double bits = static_cast<double>(wire::wire_bits(wire::Packet{legit}));
  // 4 forged frames/second of rate with a 4-frame burst: the whole
  // second's allowance can be spent at the start of each interval.
  medium.set_rate_limit(2, 4.0 * bits, 4.0 * bits);

  std::uint64_t legit_sent = 0, forged_sent = 0;
  for (SimTime t = 0; t < 200 * kSecond; t += kSecond) {
    queue.run_until(t);
    legit.interval = static_cast<std::uint32_t>(t / kSecond) + 1;
    forged.interval = legit.interval;
    if (medium.broadcast(wire::Packet{legit})) ++legit_sent;
    // The attacker tries 20 frames per interval but only ~4 pass.
    for (int i = 0; i < 20; ++i) {
      if (medium.broadcast(wire::Packet{forged})) ++forged_sent;
    }
  }
  queue.run();
  const double p = static_cast<double>(forged_sent) /
                   static_cast<double>(forged_sent + legit_sent);
  EXPECT_NEAR(p, 0.8, 0.02);
}

// ------------------------------------------------------ Fault injection

TEST(FaultSchedule, WindowsAreHalfOpen) {
  FaultSchedule sched;
  sched.add_window(10, 20);
  sched.add_window(40, 50);
  EXPECT_FALSE(sched.active(9));
  EXPECT_TRUE(sched.active(10));
  EXPECT_TRUE(sched.active(19));
  EXPECT_FALSE(sched.active(20));
  EXPECT_TRUE(sched.active(45));
  EXPECT_FALSE(sched.active(50));
  EXPECT_EQ(sched.windows(), 2u);
}

TEST(FaultSchedule, EmptyScheduleNeverActive) {
  FaultSchedule sched;
  EXPECT_FALSE(sched.active(0));
  EXPECT_FALSE(sched.active(UINT64_MAX));
  EXPECT_EQ(sched.windows(), 0u);
  EXPECT_THROW(sched.add_window(5, 5), std::invalid_argument);
  EXPECT_THROW(sched.add_window(7, 3), std::invalid_argument);
}

TEST(FaultyClock, DriftAccumulatesThenFreezes) {
  FaultyClock clock(LooseClock(0, kMillisecond));
  // +100000 ppm = +100 us per ms of true time, active for 10 ms.
  clock.add(ClockDriftFault{100000.0, 0, 10 * kMillisecond});
  EXPECT_EQ(clock.offset_at(0), 0);
  EXPECT_EQ(clock.offset_at(5 * kMillisecond), 500);
  EXPECT_EQ(clock.offset_at(10 * kMillisecond), 1000);
  // Frozen after the window: the clock stays wrong, it does not recover.
  EXPECT_EQ(clock.offset_at(20 * kMillisecond), 1000);
  EXPECT_EQ(clock.local_time(20 * kMillisecond), 20 * kMillisecond + 1000);
  // The believed bound is still the pre-fault LooseClock.
  EXPECT_EQ(clock.believed().offset(), 0);
}

TEST(FaultyClock, StepJumpsAtInstant) {
  FaultyClock clock(LooseClock(-200, kMillisecond));
  clock.add(ClockStepFault{5000, 10 * kMillisecond});
  EXPECT_EQ(clock.offset_at(10 * kMillisecond - 1), -200);
  EXPECT_EQ(clock.offset_at(10 * kMillisecond), 4800);
  EXPECT_EQ(clock.local_time(10 * kMillisecond),
            10 * kMillisecond + 4800);
}

TEST(JitterLink, SamplesWithinRangeAndGatesOnSchedule) {
  EventQueue queue;
  Rng rng(31);
  auto sched = std::make_shared<FaultSchedule>();
  sched->add_window(100, 200);
  JitterLink link(kMillisecond, 5 * kMillisecond, sched, &queue);
  // Outside the window: exactly the base latency.
  SimTime latency = link.sample(rng);
  EXPECT_EQ(latency, kMillisecond);
  // Inside the window: base plus uniform extra in [0, max_extra].
  queue.schedule_at(150, [&] {
    bool saw_extra = false;
    for (int i = 0; i < 64; ++i) {
      latency = link.sample(rng);
      EXPECT_GE(latency, kMillisecond);
      EXPECT_LE(latency, 6 * kMillisecond);
      saw_extra = saw_extra || latency != kMillisecond;
    }
    EXPECT_TRUE(saw_extra);
  });
  queue.run();
}

TEST(DuplicateChannel, CertainDuplicationDoublesDeliveries) {
  Rng rng(32);
  DuplicateChannel channel(std::make_unique<PerfectChannel>(), 1.0);
  EXPECT_EQ(channel.deliveries(rng), 2u);
  // A lossless channel with p=0 never duplicates.
  DuplicateChannel quiet(std::make_unique<PerfectChannel>(), 0.0);
  EXPECT_EQ(quiet.deliveries(rng), 1u);
}

TEST(DuplicateChannel, ScheduleGatesDuplication) {
  EventQueue queue;
  Rng rng(33);
  auto sched = std::make_shared<FaultSchedule>();
  sched->add_window(10, 20);
  DuplicateChannel channel(std::make_unique<PerfectChannel>(), 1.0, sched,
                           &queue);
  std::vector<std::size_t> copies;
  queue.schedule_at(5, [&] { copies.push_back(channel.deliveries(rng)); });
  queue.schedule_at(15, [&] { copies.push_back(channel.deliveries(rng)); });
  queue.schedule_at(25, [&] { copies.push_back(channel.deliveries(rng)); });
  queue.run();
  EXPECT_EQ(copies, (std::vector<std::size_t>{1, 2, 1}));
}

TEST(BlackoutChannel, DropsEverythingInsideWindowOnly) {
  EventQueue queue;
  Rng rng(34);
  auto sched = std::make_shared<FaultSchedule>();
  sched->add_window(10, 20);
  BlackoutChannel channel(std::make_unique<PerfectChannel>(), sched, queue);
  std::vector<std::size_t> copies;
  queue.schedule_at(15, [&] { copies.push_back(channel.deliveries(rng)); });
  queue.schedule_at(25, [&] { copies.push_back(channel.deliveries(rng)); });
  queue.run();
  EXPECT_EQ(copies, (std::vector<std::size_t>{0, 1}));
}

TEST(Medium, DuplicatedFramesCountAsExtraAirtime) {
  EventQueue q;
  Rng rng(35);
  Medium medium(q, rng);
  int received = 0;
  medium.attach([&](const wire::Packet&, SimTime) { ++received; },
                std::make_unique<DuplicateChannel>(
                    std::make_unique<PerfectChannel>(), 1.0));
  const wire::Packet p{make_announce(1, 1)};
  medium.broadcast(p);
  q.run();
  // The receiver sees both copies, and the duplicate consumed airtime
  // exactly like the first copy.
  EXPECT_EQ(received, 2);
  EXPECT_EQ(medium.duplicated_frames(), 1u);
  EXPECT_EQ(medium.total_bits(), 2 * wire::wire_bits(p));
  EXPECT_EQ(count(medium, "medium.frames_duplicated"), 1u);
}

TEST(Medium, JitterReordersBackToBackFrames) {
  EventQueue q;
  Rng rng(36);
  Medium medium(q, rng);
  std::vector<std::uint32_t> arrivals;
  medium.attach(
      [&](const wire::Packet& packet, SimTime) {
        arrivals.push_back(std::get<wire::MacAnnounce>(packet).interval);
      },
      std::make_unique<PerfectChannel>(),
      std::make_unique<JitterLink>(kMillisecond, 20 * kMillisecond));
  for (std::uint32_t i = 1; i <= 32; ++i) {
    q.run_until(q.now() + 10);
    medium.broadcast(wire::Packet{make_announce(1, i)});
  }
  q.run();
  ASSERT_EQ(arrivals.size(), 32u);
  // Jitter much wider than the 10 us inter-frame gap must reorder.
  EXPECT_FALSE(std::is_sorted(arrivals.begin(), arrivals.end()));
}

}  // namespace
}  // namespace dap::sim
