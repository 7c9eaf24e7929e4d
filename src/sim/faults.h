#pragma once
// Scripted fault injection for the simulation layer.
//
// The channel models in channel.h cover steady-state pathology (loss,
// burstiness). This header covers *scheduled* pathology — the
// fault classes a deployment implies but a Bernoulli coin never produces:
// delay jitter (which reorders frames through the event queue), frame
// duplication, total link blackouts, and receiver clock drift/steps.
//
// Faults are driven by a FaultSchedule: a scripted set of activation
// windows in sim time. Decorators consult the schedule on every frame, so
// a harness activates/deactivates a fault mix deterministically for a
// fixed seed. A decorator constructed without a schedule is always on.

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "sim/channel.h"
#include "sim/clock_model.h"
#include "sim/event_queue.h"
#include "sim/time.h"

namespace dap::sim {

/// A scripted set of half-open activation windows [start, end) in sim
/// time. Windows may be added while a run is in flight; queries are O(n)
/// over the window list (fault scripts are short).
class FaultSchedule {
 public:
  /// Adds [start, end); throws std::invalid_argument when end <= start.
  void add_window(SimTime start, SimTime end);

  [[nodiscard]] bool active(SimTime now) const noexcept;

  [[nodiscard]] std::size_t windows() const noexcept {
    return windows_.size();
  }

 private:
  struct Window {
    SimTime start;
    SimTime end;
  };
  std::vector<Window> windows_;
};

// ---------------------------------------------------------------------------
// Per-link latency models (Medium::attach).

/// How long a frame takes to cross one link. Stateless models may still
/// draw from the link's RNG, so each sample call gets the link's stream.
class LatencyModel {
 public:
  virtual ~LatencyModel() = default;
  virtual SimTime sample(common::Rng& rng) = 0;
  [[nodiscard]] virtual std::unique_ptr<LatencyModel> clone() const = 0;
};

/// The historical behaviour: every frame takes exactly `latency`.
class FixedLatency final : public LatencyModel {
 public:
  explicit FixedLatency(SimTime latency) : latency_(latency) {}
  SimTime sample(common::Rng&) override { return latency_; }
  [[nodiscard]] std::unique_ptr<LatencyModel> clone() const override {
    return std::make_unique<FixedLatency>(latency_);
  }
  [[nodiscard]] SimTime base() const noexcept { return latency_; }

 private:
  SimTime latency_;
};

/// Base latency plus uniform extra delay in [0, max_extra], optionally
/// gated by a FaultSchedule (always jittering without one). Because the
/// event queue delivers strictly in timestamp order, jitter larger than
/// the inter-frame gap REORDERS frames at the receiver — this is the
/// reordering fault, not merely a latency fault.
class JitterLink final : public LatencyModel {
 public:
  /// `clock` is required when `schedule` is given (gating needs now()).
  JitterLink(SimTime base, SimTime max_extra,
             std::shared_ptr<const FaultSchedule> schedule = nullptr,
             const EventQueue* clock = nullptr);
  SimTime sample(common::Rng& rng) override;
  [[nodiscard]] std::unique_ptr<LatencyModel> clone() const override;

 private:
  SimTime base_;
  SimTime max_extra_;
  std::shared_ptr<const FaultSchedule> schedule_;
  const EventQueue* clock_;
};

// ---------------------------------------------------------------------------
// Channel decorators.

/// Duplicates surviving frames: each delivered copy spawns one extra copy
/// with probability `dup_probability` while engaged. Duplication flows
/// through Channel::deliveries(), which decorators overriding only
/// deliver() fold through — so place DuplicateChannel OUTERMOST when
/// stacking fault decorators.
class DuplicateChannel final : public Channel {
 public:
  DuplicateChannel(std::unique_ptr<Channel> inner, double dup_probability,
                   std::shared_ptr<const FaultSchedule> schedule = nullptr,
                   const EventQueue* clock = nullptr);
  bool deliver(common::Rng& rng) override;
  std::size_t deliveries(common::Rng& rng) override;
  [[nodiscard]] std::unique_ptr<Channel> clone() const override;

 private:
  [[nodiscard]] bool engaged() const noexcept;
  std::unique_ptr<Channel> inner_;
  double dup_probability_;
  std::shared_ptr<const FaultSchedule> schedule_;
  const EventQueue* clock_;
};

/// Total outage: drops every frame during the schedule's active windows,
/// transparent outside them. Models an RF jammer duty cycle or a gateway
/// reboot taking the whole link down.
class BlackoutChannel final : public Channel {
 public:
  BlackoutChannel(std::unique_ptr<Channel> inner,
                  std::shared_ptr<const FaultSchedule> schedule,
                  const EventQueue& clock);
  bool deliver(common::Rng& rng) override;
  std::size_t deliveries(common::Rng& rng) override;
  [[nodiscard]] std::unique_ptr<Channel> clone() const override;

 private:
  std::unique_ptr<Channel> inner_;
  std::shared_ptr<const FaultSchedule> schedule_;
  const EventQueue* clock_;
};

// ---------------------------------------------------------------------------
// Clock faults.

/// Oscillator skew: the clock gains `ppm` microseconds per second of true
/// time while inside [start, end); the accumulated offset FREEZES at the
/// window's end (a drifted clock does not snap back on its own — only a
/// resync repairs it). Negative ppm models a slow clock.
struct ClockDriftFault {
  double ppm = 0.0;
  SimTime start = 0;
  SimTime end = UINT64_MAX;
};

/// Discontinuous jump of `delta` microseconds at true time `at` (an NTP
/// step, a battery brown-out reset). TESLA's safety argument assumes
/// locally monotonic clocks, so harnesses that assert the no-forgery
/// invariant should inject forward (positive) steps; a backward step
/// voids the loose-synchronization bound by construction.
struct ClockStepFault {
  std::int64_t delta = 0;
  SimTime at = 0;
};

/// A receiver's *actual* oscillator: a LooseClock base plus scripted
/// drift and step faults. The receiver's software keeps believing the
/// base LooseClock's bound; the divergence between believed and actual is
/// exactly what the desync-detection / resync path must catch and repair.
class FaultyClock {
 public:
  explicit FaultyClock(LooseClock base) : base_(base) {}

  void add(const ClockDriftFault& fault);
  void add(const ClockStepFault& fault);

  /// Offset (actual clock minus true time) at true time `t`, including
  /// the base offset and every fault's contribution so far.
  [[nodiscard]] std::int64_t offset_at(SimTime true_time) const noexcept;

  /// The reading the node's software sees at true time `t` (clamped >= 0).
  [[nodiscard]] SimTime local_time(SimTime true_time) const noexcept;

  /// The bound the receiver still believes (pre-fault calibration).
  [[nodiscard]] const LooseClock& believed() const noexcept { return base_; }

 private:
  LooseClock base_;
  std::vector<ClockDriftFault> drifts_;
  std::vector<ClockStepFault> steps_;
};

}  // namespace dap::sim
