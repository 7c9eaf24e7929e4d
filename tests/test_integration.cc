// Cross-module integration tests: full protocol stacks driven through
// the event-driven broadcast medium with loss, latency, clock skew and
// live attackers — the closest thing to the paper's deployment scenario.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "dap/dap.h"
#include "sim/adversary.h"
#include "sim/channel.h"
#include "sim/event_queue.h"
#include "sim/medium.h"
#include "strategy/defender.h"
#include "tesla/timesync.h"

namespace dap {
namespace {

using common::Bytes;
using common::bytes_of;
using common::Rng;

// --------------------------------------------- DAP under live flooding DoS

TEST(Integration, DapUnderFloodingAttackOverMedium) {
  sim::EventQueue queue;
  Rng rng(3);
  sim::Medium medium(queue, rng);

  protocol::DapConfig config;
  config.chain_length = 64;
  config.buffers = 6;
  config.schedule = sim::IntervalSchedule(0, sim::kSecond);
  protocol::DapSender sender(config, bytes_of("seed"));
  protocol::DapReceiver receiver(config, sender.chain().commitment(),
                                 bytes_of("local"), sim::LooseClock(0, 0),
                                 rng.fork(1));
  sim::FloodingForger forger(config.sender_id, config.mac_size, rng.fork(2));

  std::size_t authenticated = 0;
  medium.attach(
      [&](const wire::Packet& packet, sim::SimTime now) {
        if (const auto* a = std::get_if<wire::MacAnnounce>(&packet)) {
          receiver.receive(*a, now);
        } else if (const auto* m =
                       std::get_if<wire::MessageReveal>(&packet)) {
          if (receiver.receive(*m, now)) ++authenticated;
        }
      },
      std::make_unique<sim::PerfectChannel>());

  const std::uint32_t kIntervals = 30;
  // Attacker floods p = 0.75 (3 forged per authentic copy).
  for (std::uint32_t i = 1; i <= kIntervals; ++i) {
    queue.schedule_at(config.schedule.interval_start(i) + 100, [&, i] {
      medium.broadcast(wire::Packet{sender.announce(i, bytes_of("data"))});
      for (int f = 0; f < 3; ++f) {
        medium.broadcast(wire::Packet{forger.forge(i)});
      }
    });
    queue.schedule_at(config.schedule.interval_start(i + 1) + 100, [&, i] {
      medium.broadcast(wire::Packet{sender.reveal(i)});
    });
  }
  queue.run();
  // p^m = 0.75^6 ~ 0.18: expect the vast majority authenticated.
  EXPECT_GT(authenticated, kIntervals * 6 / 10);
  // Forged announcements occupied buffer slots but never authenticated.
  EXPECT_EQ(receiver.stats().strong_auth_success, authenticated);
  // Memory never exceeded m records per open round.
  EXPECT_LE(receiver.stored_record_bits(),
            config.buffers * 56 * 2);  // at most two open rounds
}

// ------------------------------------- adaptive stack end-to-end under DoS

TEST(Integration, AdaptiveDefenderEndToEndOverMedium) {
  sim::EventQueue queue;
  Rng rng(4);
  sim::Medium medium(queue, rng);

  protocol::DapConfig dap_config;
  dap_config.chain_length = 128;
  dap_config.buffers = 1;
  dap_config.schedule = sim::IntervalSchedule(0, sim::kSecond);
  strategy::AdaptiveConfig config;
  config.retune_period = 4;
  config.estimator_smoothing = 0.5;
  protocol::DapSender sender(dap_config, bytes_of("seed"));
  protocol::DapReceiver receiver(dap_config, sender.chain().commitment(),
                                 bytes_of("local"), sim::LooseClock(0, 0),
                                 rng.fork(1));
  strategy::AdaptiveDefender defender(config);
  sim::FloodingForger forger(dap_config.sender_id, dap_config.mac_size,
                             rng.fork(2));

  std::map<std::uint32_t, std::size_t> announce_counts;
  medium.attach(
      [&](const wire::Packet& packet, sim::SimTime now) {
        if (const auto* a = std::get_if<wire::MacAnnounce>(&packet)) {
          receiver.receive(*a, now);
          ++announce_counts[a->interval];
        } else if (const auto* m =
                       std::get_if<wire::MessageReveal>(&packet)) {
          (void)receiver.receive(*m, now);
        }
      },
      std::make_unique<sim::PerfectChannel>());

  const std::uint32_t kIntervals = 40;
  for (std::uint32_t i = 1; i <= kIntervals; ++i) {
    queue.schedule_at(dap_config.schedule.interval_start(i) + 100, [&, i] {
      medium.broadcast(wire::Packet{sender.announce(i, bytes_of("m"))});
      for (int f = 0; f < 9; ++f) {  // p = 0.9
        medium.broadcast(wire::Packet{forger.forge(i)});
      }
    });
    queue.schedule_at(dap_config.schedule.interval_start(i + 1) + 100,
                      [&, i] {
                        medium.broadcast(wire::Packet{sender.reveal(i)});
                      });
    // Close the interval bookkeeping right after its reveal.
    queue.schedule_at(dap_config.schedule.interval_start(i + 1) + 200,
                      [&, i] {
                        defender.close_interval(receiver, announce_counts[i]);
                      });
  }
  queue.run();

  // The estimator locked on to p ~ 0.9 and the optimiser raised m.
  EXPECT_NEAR(defender.estimated_p(), 0.9, 0.03);
  EXPECT_GT(receiver.buffers(), 20u);
  // After the ramp-up the defender defeats most attacks.
  EXPECT_GT(defender.stats().attacks_defeated,
            defender.stats().attacks_succeeded);
}

// --------------------------------------------- replay attack across stack

TEST(Integration, ReplayedAnnouncementsAreHarmless) {
  sim::EventQueue queue;
  Rng rng(5);
  sim::Medium medium(queue, rng);

  protocol::DapConfig config;
  config.chain_length = 32;
  config.buffers = 4;
  config.schedule = sim::IntervalSchedule(0, sim::kSecond);
  protocol::DapSender sender(config, bytes_of("seed"));
  protocol::DapReceiver receiver(config, sender.chain().commitment(),
                                 bytes_of("local"), sim::LooseClock(0, 0),
                                 rng.fork(1));
  std::vector<wire::MacAnnounce> captured;

  std::size_t authenticated = 0;
  medium.attach(
      [&](const wire::Packet& packet, sim::SimTime now) {
        if (const auto* a = std::get_if<wire::MacAnnounce>(&packet)) {
          receiver.receive(*a, now);
          captured.push_back(*a);
        } else if (const auto* m =
                       std::get_if<wire::MessageReveal>(&packet)) {
          if (receiver.receive(*m, now)) ++authenticated;
        }
      },
      std::make_unique<sim::PerfectChannel>());

  for (std::uint32_t i = 1; i <= 5; ++i) {
    queue.schedule_at(config.schedule.interval_start(i) + 100, [&, i] {
      medium.broadcast(wire::Packet{sender.announce(i, bytes_of("m"))});
    });
    queue.schedule_at(config.schedule.interval_start(i + 1) + 100, [&, i] {
      medium.broadcast(wire::Packet{sender.reveal(i)});
    });
  }
  // Interval 8: replay all recorded announcements (their keys are long
  // public). The safety check must discard every one.
  queue.schedule_at(config.schedule.interval_start(8), [&] {
    for (const wire::MacAnnounce& a : captured) {
      medium.broadcast(wire::Packet{a});
    }
  });
  queue.run();

  EXPECT_EQ(authenticated, 5u);
  EXPECT_EQ(receiver.stats().announces_unsafe, 5u);  // the replays
}

}  // namespace
}  // namespace dap

// ------------------------------------- time sync bootstrapping the stack

namespace dap {
namespace {

TEST(Integration, TimeSyncCalibrationDrivesTeslaSafetyCheck) {
  // A receiver with an unknown clock offset first syncs, then uses the
  // calibration's upper bound as its safety check for DAP rounds.
  tesla::TimeSyncClient client(bytes_of("pairwise"), 1);
  tesla::TimeSyncResponder responder(bytes_of("pairwise"));

  // Sender clock runs 250 ms ahead of the receiver; RTT 30 ms.
  const std::int64_t true_offset = 250 * sim::kMillisecond;
  const sim::SimTime t0 = 100 * sim::kMillisecond;
  const auto request = client.begin(t0);
  const auto response = responder.respond(
      request,
      t0 + 15 * sim::kMillisecond + static_cast<sim::SimTime>(true_offset));
  const auto calibration =
      client.complete(response, t0 + 30 * sim::kMillisecond);
  ASSERT_TRUE(calibration.has_value());

  protocol::DapConfig config;
  config.chain_length = 16;
  config.schedule = sim::IntervalSchedule(0, sim::kSecond);
  protocol::DapSender sender(config, bytes_of("seed"));
  protocol::DapReceiver receiver(config, sender.chain().commitment(),
                                 bytes_of("local"), sim::LooseClock(0, 0),
                                 common::Rng(1));

  // The sender announces in its interval 1; by receiver-local 600 ms the
  // calibration still proves the key undisclosed (bound ~895 ms < 1 s),
  // so the packet is accepted into the buffers.
  const auto announce = sender.announce(1, bytes_of("m"));
  const sim::SimTime receive_time = 600 * sim::kMillisecond;
  const sim::LooseClock naive(0, 0);
  ASSERT_LT(tesla::latest_sender_interval(calibration, naive, receive_time,
                                          config.schedule),
            1 + config.disclosure_delay);
  receiver.receive(announce, receive_time);
  EXPECT_TRUE(
      receiver.receive(sender.reveal(1), 2 * sim::kSecond).has_value());

  // A packet arriving at local 800 ms could already be forged (bound
  // 1095 ms >= 1000 ms): the calibration rejects it even though the
  // receiver's own naive clock would have accepted it.
  EXPECT_GE(tesla::latest_sender_interval(calibration, naive,
                                          800 * sim::kMillisecond,
                                          config.schedule),
            1 + config.disclosure_delay);
  EXPECT_TRUE(naive.packet_safe(1, config.disclosure_delay,
                                800 * sim::kMillisecond, config.schedule));
}

}  // namespace
}  // namespace dap
