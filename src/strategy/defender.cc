#include "strategy/defender.h"

#include <algorithm>
#include <stdexcept>

#include "game/optimizer.h"

namespace dap::strategy {

// ---------------------------------------------------------- AttackEstimator

AttackEstimator::AttackEstimator(std::size_t expected_copies,
                                 double smoothing)
    : expected_copies_(expected_copies), smoothing_(smoothing) {
  if (expected_copies_ == 0) {
    throw std::invalid_argument("AttackEstimator: expected_copies >= 1");
  }
  if (smoothing_ <= 0.0 || smoothing_ > 1.0) {
    throw std::invalid_argument("AttackEstimator: smoothing in (0, 1]");
  }
}

void AttackEstimator::observe_interval(std::size_t observed_copies) {
  double raw = 0.0;
  if (observed_copies > expected_copies_) {
    raw = static_cast<double>(observed_copies - expected_copies_) /
          static_cast<double>(observed_copies);
  }
  last_raw_ = raw;
  if (intervals_ == 0) {
    ewma_ = raw;
  } else {
    ewma_ = smoothing_ * raw + (1.0 - smoothing_) * ewma_;
  }
  ++intervals_;
  // Keep strictly below 1 so GameParams stays valid downstream.
  ewma_ = std::clamp(ewma_, 0.0, 0.999);
}

// --------------------------------------------------------- AdaptiveDefender

AdaptiveDefender::AdaptiveDefender(const AdaptiveConfig& config)
    : config_(config),
      estimator_(config.expected_copies, config.estimator_smoothing) {}

void AdaptiveDefender::close_interval(protocol::DapReceiver& receiver,
                                      std::size_t observed_copies) {
  estimator_.observe_interval(observed_copies);
  ++stats_.intervals_closed;

  // Cost ledger: defending costs k2·m this interval; each attack that
  // slipped through (strong auth failed => no authentic record survived)
  // costs the data's value Ra.
  const auto& ds = receiver.stats();
  const std::uint64_t new_successes =
      ds.strong_auth_success - last_success_count_;
  const std::uint64_t new_failures =
      ds.strong_auth_failures - last_failure_count_;
  last_success_count_ = ds.strong_auth_success;
  last_failure_count_ = ds.strong_auth_failures;
  stats_.attacks_defeated += new_successes;
  stats_.attacks_succeeded += new_failures;
  stats_.realized_cost +=
      config_.game.k2 * static_cast<double>(receiver.buffers()) +
      config_.game.Ra * static_cast<double>(new_failures);

  if (stats_.intervals_closed % config_.retune_period == 0) {
    retune(receiver);
  }
}

void AdaptiveDefender::retune(protocol::DapReceiver& receiver) {
  ++stats_.retunes;
  const double p_hat = estimator_.estimate();
  if (p_hat <= 0.0) {
    // No attack observed: a single buffer suffices for loss robustness.
    receiver.set_buffers(1);
    stats_.defense_share_x = 0.0;
    return;
  }
  game::GameParams g = config_.game;
  g.xa = p_hat;
  g.m = 1;  // overwritten by the optimiser
  const auto result =
      game::optimize_m(g, game::OptimizeMode::kPaperInterior);
  receiver.set_buffers(result.m);
  stats_.defense_share_x = result.ess.point.x;
}

double AdaptiveDefender::average_cost() const noexcept {
  if (stats_.intervals_closed == 0) return 0.0;
  return stats_.realized_cost /
         static_cast<double>(stats_.intervals_closed);
}

}  // namespace dap::strategy
