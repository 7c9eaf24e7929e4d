#pragma once
// Shared broadcast medium.
//
// Models a single-hop broadcast domain (the setting of μTESLA-style
// protocols: one base-station/sender population, many receiver nodes,
// plus attackers injecting into the same medium). Every broadcast is
// independently pushed through each attached link's channel model and
// latency; every delivered copy is the one immutable packet the sender
// broadcast. Bandwidth accounting feeds the bandwidth-fraction
// experiments.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "obs/registry.h"
#include "sim/channel.h"
#include "sim/event_queue.h"
#include "sim/faults.h"
#include "sim/shaper.h"
#include "wire/packet.h"

namespace dap::sim {

class Medium {
 public:
  using ReceiveFn = std::function<void(const wire::Packet&, SimTime)>;

  Medium(EventQueue& queue, common::Rng& rng);

  /// Attaches a receiver with its own channel instance and fixed one-way
  /// latency. Returns the link index.
  std::size_t attach(ReceiveFn receive, std::unique_ptr<Channel> channel,
                     SimTime latency = kMillisecond);

  /// Same, with a per-link latency model (fixed or jittered); each
  /// delivered copy samples its own latency, so jitter wider than the
  /// inter-frame gap reorders frames at this receiver.
  std::size_t attach(ReceiveFn receive, std::unique_ptr<Channel> channel,
                     std::unique_ptr<LatencyModel> latency);

  /// Broadcasts `packet` to every attached link (including any owned by
  /// the sender itself — receivers filter by sender id if they care).
  /// Returns false if the sender's rate limit dropped the frame.
  /// A channel that duplicates (Channel::deliveries > 1) makes the extra
  /// copies count as additional medium transmissions: their bits are
  /// added to total_bits, since a network-level retransmission consumes
  /// airtime exactly like the first copy did.
  bool broadcast(const wire::Packet& packet);

  /// Caps `sender`'s transmit rate with a token bucket. Enforces the
  /// bandwidth fractions the game model reasons about: a flooding
  /// attacker limited to xa * capacity genuinely cannot exceed it.
  void set_rate_limit(wire::NodeId sender, double bits_per_second,
                      double burst_bits);

  /// Frames dropped by rate limiting for `sender`.
  [[nodiscard]] std::uint64_t rate_limited_drops(
      wire::NodeId sender) const noexcept;

  [[nodiscard]] std::uint64_t total_bits() const noexcept {
    return total_bits_;
  }
  [[nodiscard]] std::size_t links() const noexcept { return links_.size(); }

  /// This medium's own counters (medium.broadcasts, medium.frames_lost,
  /// ...), registered at construction. Render them with
  /// `report(/*skip_zero_counters=*/true)` to list only what happened.
  [[nodiscard]] obs::Registry& registry() noexcept { return registry_; }
  [[nodiscard]] const obs::Registry& registry() const noexcept {
    return registry_;
  }

  /// Extra frame copies produced by duplicating channels so far.
  [[nodiscard]] std::uint64_t duplicated_frames() const noexcept {
    return registry_.value(ctr_frames_duplicated_);
  }

 private:
  struct Link {
    ReceiveFn receive;
    std::unique_ptr<Channel> channel;
    std::unique_ptr<LatencyModel> latency;
    common::Rng rng;
  };

  EventQueue& queue_;
  common::Rng rng_;
  std::vector<Link> links_;
  std::uint64_t total_bits_ = 0;
  std::map<wire::NodeId, TokenBucket> rate_limits_;
  std::map<wire::NodeId, std::uint64_t> rate_limited_;
  obs::Registry registry_;
  // Registry handles cached at construction (per-frame path).
  obs::CounterHandle ctr_rate_limited_;
  obs::CounterHandle ctr_broadcasts_;
  obs::CounterHandle ctr_frames_lost_;
  obs::CounterHandle ctr_frames_duplicated_;
};

}  // namespace dap::sim
