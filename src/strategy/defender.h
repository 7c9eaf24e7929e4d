#pragma once
// The defender's online loop (paper §V put to work): a controller that
// re-tunes a DAP receiver's buffer count m with the evolutionary-game
// optimiser as the estimated attack level changes.
//
// The caller feeds packets to its own protocol::DapReceiver and, at the
// end of each interval, calls close_interval(receiver, copies). There the
// defender
//  1. feeds the observed announcement count to the attack estimator,
//  2. charges the game-model cost ledger (k2·m per defended interval, Ra
//     per attack that got through) from the receiver's stats, so
//     experiments can compare realized cost against the analytic E of
//     Fig. 8,
//  3. every `retune_period` intervals re-runs Algorithm 3 (paper-interior
//     mode, m <= game::kMaxBuffers) on p̂ and sets the receiver's m. It
//     also records the ESS defence share X, which a population layer uses
//     to decide *whether* a node buffers at all.

#include <cstddef>
#include <cstdint>

#include "dap/dap.h"
#include "game/params.h"

namespace dap::strategy {

/// Online estimate of the attack level p (forged fraction).
///
/// A DAP receiver cannot tell forged from authentic MAC announcements
/// before key disclosure, but it *can* count them, and it knows the
/// sender's redundancy (how many authentic copies the sender broadcasts
/// per interval — a protocol constant). With k observed copies and c
/// expected authentic ones, the per-interval estimate is
///   p̂ = max(0, (k - c) / k),
/// smoothed across intervals with an exponentially weighted moving
/// average so that the controller neither chases noise nor lags a real
/// change in attack intensity by much.
class AttackEstimator {
 public:
  /// `expected_copies` = sender's per-interval authentic redundancy c;
  /// `smoothing` = EWMA weight of the newest observation, in (0, 1].
  AttackEstimator(std::size_t expected_copies, double smoothing = 0.25);

  /// Records one finished interval with `observed_copies` announcements.
  void observe_interval(std::size_t observed_copies);

  /// Current smoothed estimate p̂ in [0, 1); 0 before any observation.
  [[nodiscard]] double estimate() const noexcept { return ewma_; }

  /// Raw (unsmoothed) estimate of the last interval.
  [[nodiscard]] double last_raw() const noexcept { return last_raw_; }

  [[nodiscard]] std::uint64_t intervals_observed() const noexcept {
    return intervals_;
  }

 private:
  std::size_t expected_copies_;
  double smoothing_;
  double ewma_ = 0.0;
  double last_raw_ = 0.0;
  std::uint64_t intervals_ = 0;
};

struct AdaptiveConfig {
  game::GameParams game;            // Ra/k1/k2; xa and m are overwritten
  std::size_t expected_copies = 1;  // sender's authentic redundancy
  std::uint32_t retune_period = 8;  // intervals between re-optimisations
  double estimator_smoothing = 0.25;
};

struct AdaptiveStats {
  std::uint64_t retunes = 0;
  std::uint64_t intervals_closed = 0;
  std::uint64_t attacks_succeeded = 0;   // reveal arrived, no record matched
  std::uint64_t attacks_defeated = 0;    // strong auth succeeded
  double realized_cost = 0.0;            // game-model ledger (see header)
  double defense_share_x = 1.0;          // ESS X of the latest retune
};

class AdaptiveDefender {
 public:
  explicit AdaptiveDefender(const AdaptiveConfig& config);

  /// Call once at the end of each interval with the receiver the
  /// interval's packets went to and the number of MAC announcements
  /// observed in it; drives estimation, the cost ledger and retuning.
  void close_interval(protocol::DapReceiver& receiver,
                      std::size_t observed_copies);

  [[nodiscard]] double estimated_p() const noexcept {
    return estimator_.estimate();
  }
  [[nodiscard]] const AdaptiveStats& stats() const noexcept { return stats_; }
  /// Average realized cost per closed interval.
  [[nodiscard]] double average_cost() const noexcept;

 private:
  void retune(protocol::DapReceiver& receiver);

  AdaptiveConfig config_;
  AttackEstimator estimator_;
  AdaptiveStats stats_;
  std::uint64_t last_success_count_ = 0;
  std::uint64_t last_failure_count_ = 0;
};

}  // namespace dap::strategy
