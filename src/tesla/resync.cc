#include "tesla/resync.h"

#include <string>

#include "common/contracts.h"

namespace dap::tesla {

ResyncController::ResyncController(std::string_view metric_prefix,
                                   ResyncConfig config)
    : config_(config) {
  auto& reg = obs::Registry::global();
  const std::string prefix(metric_prefix);
  ctr_suspects_ = reg.counter(prefix + ".resync_suspect_events");
  ctr_episodes_ = reg.counter(prefix + ".desync_episodes");
  ctr_attempts_ = reg.counter(prefix + ".resync_attempts");
  ctr_successes_ = reg.counter(prefix + ".resync_successes");
  ctr_failures_ = reg.counter(prefix + ".resync_failures");
  ctr_exhausted_ = reg.counter(prefix + ".resync_budget_exhausted");
  hist_latency_ = reg.histogram(prefix + ".resync_latency_us");
}

void ResyncController::note_suspect(sim::SimTime local_now) {
  ++stats_.suspect_events;
  obs::Registry::global().add(ctr_suspects_);
  if (!config_.enabled || desynced_) return;
  if (++streak_ < config_.desync_threshold) return;
  desynced_ = true;
  streak_ = 0;
  episode_start_ = local_now;
  retries_left_ = config_.retry_budget;
  backoff_ = config_.backoff_initial;
  next_attempt_ = local_now;  // first attempt fires immediately
  ++stats_.desync_episodes;
  obs::Registry::global().add(ctr_episodes_);
}

void ResyncController::note_healthy() noexcept {
  if (!desynced_) streak_ = 0;
}

void ResyncController::invalidate() noexcept {
  desynced_ = false;
  streak_ = 0;
  last_calibrated_ = 0;
  calibration_.reset();
}

void ResyncController::maybe_resync(sim::SimTime local_now) {
  if (!config_.enabled || !desynced_ || !handler_) return;
  if (retries_left_ == 0 || local_now < next_attempt_) return;
  auto& reg = obs::Registry::global();
  ++stats_.attempts;
  reg.add(ctr_attempts_);
  std::optional<SyncCalibration> calibration = handler_(local_now);
  if (calibration.has_value()) {
    ++stats_.successes;
    reg.add(ctr_successes_);
    DAP_ENSURE(local_now >= episode_start_,
               "resync: success cannot precede the episode start");
    reg.observe(hist_latency_,
                static_cast<double>(local_now - episode_start_));
    desynced_ = false;
    streak_ = 0;
    last_calibrated_ = local_now;
    calibration_ = calibration;
    return;
  }
  ++stats_.failures;
  reg.add(ctr_failures_);
  --retries_left_;
  if (retries_left_ == 0) {
    // Budget spent: close the episode; fresh suspicion re-arms it.
    ++stats_.budget_exhausted;
    reg.add(ctr_exhausted_);
    desynced_ = false;
    streak_ = 0;
    return;
  }
  next_attempt_ = local_now + backoff_;
  backoff_ = backoff_ * 2 < config_.backoff_max ? backoff_ * 2
                                                : config_.backoff_max;
}

sim::SimTime ResyncController::safety_margin(
    sim::SimTime local_now) const noexcept {
  if (config_.drift_allowance_ppm <= 0.0 || local_now <= last_calibrated_) {
    return 0;
  }
  const double elapsed = static_cast<double>(local_now - last_calibrated_);
  return static_cast<sim::SimTime>(elapsed * config_.drift_allowance_ppm /
                                   1e6);
}

}  // namespace dap::tesla
