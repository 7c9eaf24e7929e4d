#pragma once
// Loose time synchronization protocol (RFC 4082 §3.4 style).
//
// Everything TESLA-family needs is an UPPER BOUND on the sender's clock.
// The receiver sends a nonce; the sender replies with (nonce, its clock
// reading), MACed under the pairwise key. Because the response was
// generated no earlier than the request left, the sender's clock at any
// later local time t is at most
//     response.sender_time + (t - t_request)
// — regardless of network delays. The bound's slack equals the
// round-trip time, which is also exactly the `max_offset` a LooseClock
// needs, so a completed sync converts directly into the safety check
// used by every receiver here (latest_sender_interval).

#include <cstdint>
#include <optional>

#include "common/bytes.h"
#include "sim/clock_model.h"
#include "sim/time.h"

namespace dap::tesla {

struct SyncRequest {
  std::uint64_t nonce = 0;
};

struct SyncResponse {
  std::uint64_t nonce = 0;
  sim::SimTime sender_time = 0;  // sender's clock when it built the reply
  common::InlineBytes<32> mac;   // MAC over (nonce | sender_time)
};

/// The result of a completed handshake.
class SyncCalibration {
 public:
  SyncCalibration(sim::SimTime request_local, sim::SimTime response_local,
                  sim::SimTime sender_time);

  /// Upper bound on the sender's clock at receiver-local time `t`
  /// (t >= the response arrival; earlier queries return the bound at
  /// arrival time).
  [[nodiscard]] sim::SimTime upper_bound_sender_time(
      sim::SimTime local_now) const noexcept;

  /// The bound's slack: the round-trip time of the handshake.
  [[nodiscard]] sim::SimTime uncertainty() const noexcept {
    return response_local_ - request_local_;
  }

 private:
  sim::SimTime request_local_;
  sim::SimTime response_local_;
  sim::SimTime sender_time_;
};

/// x_hi: the latest interval the sender can have reached at local time
/// `local_now`, by `calibration` when there is one, else by `clock`'s loose
/// bound. A packet for interval i is safe iff x_hi < i + d (packet_safe).
[[nodiscard]] inline std::uint32_t latest_sender_interval(
    const std::optional<SyncCalibration>& calibration,
    const sim::LooseClock& clock, sim::SimTime local_now,
    const sim::IntervalSchedule& sched) noexcept {
  return sched.interval_at(calibration
                               ? calibration->upper_bound_sender_time(local_now)
                               : clock.latest_sender_time(local_now));
}

/// Receiver side of the handshake. One in-flight request at a time;
/// stale or forged responses are rejected.
class TimeSyncClient {
 public:
  /// `pairwise_key` authenticates the responder; `rng_seed` draws nonces.
  TimeSyncClient(common::Bytes pairwise_key, std::uint64_t rng_seed);

  /// Starts a handshake at `local_now`; returns the request to send.
  SyncRequest begin(sim::SimTime local_now);

  /// Processes a response at `local_now`. Returns the calibration on
  /// success; nullopt for wrong nonce, bad MAC, no pending request, or
  /// time running backwards.
  std::optional<SyncCalibration> complete(const SyncResponse& response,
                                          sim::SimTime local_now);

  [[nodiscard]] bool pending() const noexcept { return pending_; }

 private:
  common::Bytes key_;
  std::uint64_t rng_state_;
  bool pending_ = false;
  std::uint64_t nonce_ = 0;
  sim::SimTime request_local_ = 0;
};

/// Sender side: answers any request with its current clock reading.
class TimeSyncResponder {
 public:
  explicit TimeSyncResponder(common::Bytes pairwise_key);

  [[nodiscard]] SyncResponse respond(const SyncRequest& request,
                                     sim::SimTime sender_now) const;

 private:
  common::Bytes key_;
};

}  // namespace dap::tesla
