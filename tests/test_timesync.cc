// Tests for the loose time-synchronization handshake and its integration
// with the TESLA safety check.

#include <gtest/gtest.h>

#include "tesla/timesync.h"

namespace dap::tesla {
namespace {

using common::bytes_of;
using sim::kMillisecond;
using sim::kSecond;

TEST(TimeSync, HandshakeProducesValidCalibration) {
  TimeSyncClient client(bytes_of("pairwise"), 1);
  TimeSyncResponder responder(bytes_of("pairwise"));

  // Receiver clock is 300 ms behind the sender; RTT 40 ms.
  const auto request = client.begin(/*local_now=*/1000 * kMillisecond);
  const auto response =
      responder.respond(request, /*sender_now=*/1320 * kMillisecond);
  const auto calibration =
      client.complete(response, /*local_now=*/1040 * kMillisecond);
  ASSERT_TRUE(calibration.has_value());
  EXPECT_EQ(calibration->uncertainty(), 40 * kMillisecond);

  // Upper bound is never below the true sender clock.
  // True sender clock at local 2000ms is 2300ms; bound must be >= that.
  const auto bound =
      calibration->upper_bound_sender_time(2000 * kMillisecond);
  EXPECT_GE(bound, 2300 * kMillisecond);
  // And tight: within the RTT of the truth.
  EXPECT_LE(bound, 2300 * kMillisecond + 40 * kMillisecond);
}

TEST(TimeSync, BoundGrowsWithLocalTime) {
  TimeSyncClient client(bytes_of("k"), 2);
  TimeSyncResponder responder(bytes_of("k"));
  const auto request = client.begin(0);
  const auto calibration =
      client.complete(responder.respond(request, 5 * kSecond), kSecond);
  ASSERT_TRUE(calibration.has_value());
  const auto at_2s = calibration->upper_bound_sender_time(2 * kSecond);
  const auto at_3s = calibration->upper_bound_sender_time(3 * kSecond);
  EXPECT_EQ(at_3s - at_2s, kSecond);
  // Queries before the response arrival clamp to arrival.
  EXPECT_EQ(calibration->upper_bound_sender_time(0),
            calibration->upper_bound_sender_time(kSecond));
}

TEST(TimeSync, PacketSafetyUsesBound) {
  TimeSyncClient client(bytes_of("k"), 3);
  TimeSyncResponder responder(bytes_of("k"));
  const sim::IntervalSchedule sched(0, kSecond);
  // Sender and receiver perfectly aligned, 10 ms RTT.
  const auto request = client.begin(500 * kMillisecond);
  const auto calibration = client.complete(
      responder.respond(request, 505 * kMillisecond), 510 * kMillisecond);
  ASSERT_TRUE(calibration.has_value());
  // Interval 1, d = 1: key disclosed at sender time 1000 ms. At local
  // 900 ms the bound is ~905 ms < 1000 ms: x_hi = 1 < 1 + 1, safe.
  const sim::LooseClock unused(0, 0);
  EXPECT_EQ(latest_sender_interval(calibration, unused, 900 * kMillisecond,
                                   sched),
            1u);
  // At local 996 ms the bound exceeds 1000 ms: x_hi = 2, unsafe.
  EXPECT_EQ(latest_sender_interval(calibration, unused, 996 * kMillisecond,
                                   sched),
            2u);
}

TEST(TimeSync, RejectsForgedResponse) {
  TimeSyncClient client(bytes_of("k"), 4);
  TimeSyncResponder responder(bytes_of("k"));
  const auto request = client.begin(0);
  auto response = responder.respond(request, kSecond);
  // An attacker rewinds the claimed sender time to widen the window.
  response.sender_time = 0;
  EXPECT_FALSE(client.complete(response, kMillisecond).has_value());
  EXPECT_TRUE(client.pending());  // the handshake stays open
}

TEST(TimeSync, RejectsWrongKeyResponder) {
  TimeSyncClient client(bytes_of("key-a"), 5);
  TimeSyncResponder wrong(bytes_of("key-b"));
  const auto request = client.begin(0);
  EXPECT_FALSE(
      client.complete(wrong.respond(request, kSecond), kMillisecond)
          .has_value());
}

TEST(TimeSync, RejectsWrongNonceAndReplay) {
  TimeSyncClient client(bytes_of("k"), 6);
  TimeSyncResponder responder(bytes_of("k"));
  const auto first = client.begin(0);
  const auto first_response = responder.respond(first, kSecond);
  ASSERT_TRUE(client.complete(first_response, kMillisecond).has_value());
  // Replay after completion: no pending handshake.
  EXPECT_FALSE(client.complete(first_response, 2 * kSecond).has_value());
  // New handshake: the old response's nonce no longer matches.
  (void)client.begin(3 * kSecond);
  EXPECT_FALSE(
      client.complete(first_response, 3 * kSecond + kMillisecond)
          .has_value());
}

TEST(TimeSync, RejectsResponseBeforeRequest) {
  TimeSyncClient client(bytes_of("k"), 7);
  TimeSyncResponder responder(bytes_of("k"));
  const auto request = client.begin(5 * kSecond);
  EXPECT_FALSE(client.complete(responder.respond(request, kSecond), kSecond)
                   .has_value());
}

TEST(TimeSync, RejectsEmptyKeys) {
  EXPECT_THROW(TimeSyncClient({}, 1), std::invalid_argument);
  EXPECT_THROW(TimeSyncResponder({}), std::invalid_argument);
}

TEST(TimeSync, NoncesVaryAcrossHandshakes) {
  TimeSyncClient client(bytes_of("k"), 8);
  const auto a = client.begin(0);
  const auto b = client.begin(kSecond);
  EXPECT_NE(a.nonce, b.nonce);
}

TEST(TimeSync, CalibrationNeverUnderestimatesSenderClock) {
  // Property: for any true offset and RTT split, the bound covers the
  // real sender clock.
  common::Rng rng(9);
  for (int trial = 0; trial < 200; ++trial) {
    const auto offset = rng.uniform(0, 2 * kSecond);  // sender ahead
    const auto out_delay = rng.uniform(0, 100 * kMillisecond);
    const auto back_delay = rng.uniform(0, 100 * kMillisecond);
    TimeSyncClient client(bytes_of("k"),
                          static_cast<std::uint64_t>(10 + trial));
    TimeSyncResponder responder(bytes_of("k"));
    const sim::SimTime t0 = kSecond;
    const auto request = client.begin(t0);
    const sim::SimTime sender_at_reply = t0 + out_delay + offset;
    const auto calibration = client.complete(
        responder.respond(request, sender_at_reply),
        t0 + out_delay + back_delay);
    ASSERT_TRUE(calibration.has_value());
    const sim::SimTime query = 10 * kSecond;
    const sim::SimTime true_sender_clock = query + offset;
    EXPECT_GE(calibration->upper_bound_sender_time(query),
              true_sender_clock);
    EXPECT_LE(calibration->upper_bound_sender_time(query),
              true_sender_clock + calibration->uncertainty());
  }
}

}  // namespace
}  // namespace dap::tesla
