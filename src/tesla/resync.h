#pragma once
// Receiver desynchronization detection and recovery, shared by the DAP
// and TESLA++ receivers.
//
// A TESLA-family receiver is "desynced" when its loose-time calibration
// no longer matches reality (oscillator drift, a clock step, a crash that
// lost the calibration): authentic announces start failing packet_safe
// and disclosed keys stop matching stored records. The controller watches
// those signals, declares a desync episode after a streak of consecutive
// suspect events, and then drives re-execution of the timesync handshake
// with capped exponential backoff and a per-episode retry budget. A
// successful handshake yields a fresh SyncCalibration the receiver
// installs in place of its stale clock bound.
//
// The controller also owns the drift allowance: between calibrations the
// safety check widens its margin by elapsed * ppm, so an oscillator whose
// real skew stays inside the allowance can never authenticate a forged
// message before the desync is detected (the margin always errs on the
// "key may already be public" side).
//
// Telemetry: every controller exports <prefix>.resync_* counters and a
// <prefix>.resync_latency_us histogram through obs::Registry::global().

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>

#include "obs/registry.h"
#include "sim/time.h"
#include "tesla/timesync.h"

namespace dap::tesla {

struct ResyncConfig {
  bool enabled = false;
  /// Consecutive suspect events (unsafe announces, rejected keys) that
  /// declare the receiver desynchronized.
  std::uint64_t desync_threshold = 8;
  /// Handshake attempts per desync episode; when exhausted the episode
  /// closes and a fresh streak of suspicion must accumulate to re-arm.
  std::uint32_t retry_budget = 8;
  sim::SimTime backoff_initial = 50 * sim::kMillisecond;
  sim::SimTime backoff_max = 5 * sim::kSecond;
  /// Assumed worst-case oscillator skew in parts-per-million. 0 disables
  /// the widening margin (pre-existing behaviour).
  double drift_allowance_ppm = 0.0;
};

struct ResyncStats {
  std::uint64_t suspect_events = 0;
  std::uint64_t desync_episodes = 0;
  std::uint64_t attempts = 0;
  std::uint64_t successes = 0;
  std::uint64_t failures = 0;
  std::uint64_t budget_exhausted = 0;
};

/// One handshake attempt over whatever transport the deployment wires in
/// (in the chaos harness: a TimeSyncClient/Responder pair riding the same
/// faulty link, so blackouts genuinely fail attempts). Returns the fresh
/// calibration, or nullopt when the responder was unreachable.
using ResyncFn =
    std::function<std::optional<SyncCalibration>(sim::SimTime local_now)>;

class ResyncController {
 public:
  /// `metric_prefix` namespaces the registry instruments ("dap",
  /// "teslapp", ...).
  ResyncController(std::string_view metric_prefix, ResyncConfig config);

  void set_handler(ResyncFn handler) { handler_ = std::move(handler); }
  [[nodiscard]] const ResyncConfig& config() const noexcept {
    return config_;
  }

  /// Feed a desync signal (unsafe announce / key rejection) observed at
  /// `local_now`.
  void note_suspect(sim::SimTime local_now);
  /// Feed a health signal (a strong authentication succeeded): resets the
  /// suspicion streak of a not-yet-declared episode.
  void note_healthy() noexcept;

  /// Drives the recovery state machine; call from receive paths and idle
  /// ticks. A handshake that succeeds installs its calibration.
  void maybe_resync(sim::SimTime local_now);

  /// Drops the calibration (crash/restart): the next suspect streak
  /// re-arms an episode from scratch, and the drift margin grows from the
  /// bootstrap epoch again — the receiver is back on its bootstrap clock
  /// bound, so the allowance must cover all drift since then, not merely
  /// since the crash.
  void invalidate() noexcept;

  /// x_hi: the latest interval the sender can have reached, by the
  /// installed calibration, else by `clock`'s loose bound, at `local_now`
  /// widened by the drift margin. A larger reading only makes "key may
  /// already be public" more likely, so bounded unmodelled drift can
  /// never admit a late forgery; it only costs liveness.
  [[nodiscard]] std::uint32_t latest_sender_interval(
      const sim::LooseClock& clock, sim::SimTime local_now,
      const sim::IntervalSchedule& sched) const noexcept {
    return tesla::latest_sender_interval(
        calibration_, clock, local_now + safety_margin(local_now), sched);
  }

  [[nodiscard]] bool desynced() const noexcept { return desynced_; }
  [[nodiscard]] const ResyncStats& stats() const noexcept { return stats_; }

  /// Extra safety margin at `local_now` under the drift allowance:
  /// (local_now - last calibration) * ppm. Saturates, never throws.
  [[nodiscard]] sim::SimTime safety_margin(
      sim::SimTime local_now) const noexcept;

 private:
  ResyncConfig config_;
  ResyncFn handler_;
  std::uint64_t streak_ = 0;
  bool desynced_ = false;
  sim::SimTime episode_start_ = 0;
  std::uint32_t retries_left_ = 0;
  sim::SimTime next_attempt_ = 0;
  sim::SimTime backoff_ = 0;
  sim::SimTime last_calibrated_ = 0;
  std::optional<SyncCalibration> calibration_;
  ResyncStats stats_;
  obs::CounterHandle ctr_suspects_;
  obs::CounterHandle ctr_episodes_;
  obs::CounterHandle ctr_attempts_;
  obs::CounterHandle ctr_successes_;
  obs::CounterHandle ctr_failures_;
  obs::CounterHandle ctr_exhausted_;
  obs::HistogramHandle hist_latency_;
};

}  // namespace dap::tesla
