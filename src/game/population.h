#pragma once
// Finite-population dynamics: bounded rationality made concrete.
//
// The paper justifies the evolutionary model by nodes imitating
// successful peers rather than solving the game (§V-A). Two agent-based
// sims implement that literally, each with finite populations of
// defender and attacker agents playing pure strategies:
//
//  * PopulationSim applies the *expected* payoff matrix and revises by
//    pairwise proportional imitation — pick a random same-population
//    peer, switch to its strategy with probability proportional to the
//    payoff advantage. In the large-population limit this revision
//    protocol converges to exactly the replicator ODE (replicator.h),
//    which the tests verify empirically.
//  * CoevolutionSim drops that last piece of omniscience: every agent
//    only sees its own noisy, realized payoff (a defended round survived
//    the flood or it did not; an attack run paid off or it did not) and
//    imitates a single random peer on the observed payoff difference. No
//    agent knows p, m, Ra or the opponent mix; the experiments show the
//    population mix still finds the game's ESS. Attack outcomes are
//    Bernoulli(p^m) by default (the rate validated against real DAP
//    receivers in E7); a hook lets tests substitute other outcome models.

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "game/params.h"
#include "game/replicator.h"

namespace dap::game {

/// Mean shares over the window of run_and_average().
struct WindowMean {
  State mean{};
  std::size_t rounds = 0;
};

/// The run loop both sims share; `Sim` supplies step() and state().
/// state() draws no randomness, so recording it never perturbs a run.
template <typename Sim>
class ImitationRun {
 public:
  /// Runs `rounds` steps, recording the share trajectory (initial state
  /// first).
  std::vector<State> run(std::size_t rounds) {
    std::vector<State> trajectory;
    trajectory.reserve(rounds + 1);
    trajectory.push_back(self().state());
    for (std::size_t r = 0; r < rounds; ++r) {
      self().step();
      trajectory.push_back(self().state());
    }
    return trajectory;
  }

  /// Steps `warmup_rounds` times, then averages the shares over the next
  /// `window_rounds` steps.
  WindowMean run_and_average(std::size_t warmup_rounds,
                             std::size_t window_rounds) {
    for (std::size_t r = 0; r < warmup_rounds; ++r) self().step();
    WindowMean out;
    out.rounds = window_rounds;
    for (std::size_t r = 0; r < window_rounds; ++r) {
      self().step();
      const State s = self().state();
      out.mean.x += s.x;
      out.mean.y += s.y;
    }
    if (window_rounds > 0) {
      out.mean.x /= static_cast<double>(window_rounds);
      out.mean.y /= static_cast<double>(window_rounds);
    }
    return out;
  }

 private:
  Sim& self() noexcept { return static_cast<Sim&>(*this); }
};

struct PopulationConfig {
  std::size_t defenders = 1000;
  std::size_t attackers = 1000;
  double initial_x = 0.5;  // share of defenders starting with buffers on
  double initial_y = 0.5;  // share of attackers starting with DoS on
  /// Imitation step scale; plays the role of dt in the ODE.
  double imitation_rate = 0.005;
  /// Per-agent, per-round exploration probability (replicator-mutator
  /// dynamics). Finite populations have absorbing boundaries that the
  /// continuous replicator does not; a small mutation rate keeps rare
  /// strategies alive, matching the ODE's open-interval behaviour.
  double mutation_rate = 0.001;
};

class PopulationSim : public ImitationRun<PopulationSim> {
 public:
  PopulationSim(const PopulationConfig& config, const GameParams& game,
                common::Rng rng);

  /// One revision round for both populations.
  void step();

  [[nodiscard]] double defender_share() const noexcept;
  [[nodiscard]] double attacker_share() const noexcept;
  [[nodiscard]] State state() const noexcept {
    return {defender_share(), attacker_share()};
  }

 private:
  PopulationConfig config_;
  GameParams game_;
  common::Rng rng_;
  std::size_t defending_ = 0;  // count of defenders playing buffer-selection
  std::size_t attacking_ = 0;  // count of attackers playing DoS
};

struct CoevolutionConfig {
  std::size_t defenders = 2000;
  std::size_t attackers = 2000;
  double initial_x = 0.5;
  double initial_y = 0.5;
  /// Imitation scale: switch probability = rate * max(0, payoff gap).
  /// Payoffs are O(Ra), so rate * Ra should stay well below 1.
  double imitation_rate = 0.002;
  /// Exploration probability per agent per round (keeps boundaries
  /// non-absorbing, as in the replicator-mutator model).
  double mutation_rate = 0.0005;
  /// Rounds an agent observes (accumulating its realized payoff) before
  /// each revision. Averaging over several rounds shrinks the payoff
  /// noise that otherwise biases the quasi-stationary mix away from the
  /// ESS — "look before you imitate".
  std::size_t observation_rounds = 8;
};

class CoevolutionSim : public ImitationRun<CoevolutionSim> {
 public:
  /// Outcome model: returns true if an attack on a defender with m
  /// buffers succeeds. The default samples Bernoulli(p^m).
  using AttackOutcome = std::function<bool(common::Rng&)>;

  CoevolutionSim(const CoevolutionConfig& config, const GameParams& game,
                 common::Rng rng);

  /// Overrides the attack-vs-defended outcome model.
  void set_attack_outcome(AttackOutcome outcome);

  /// One round: every defender meets one attacker draw, payoffs are
  /// realized, then both populations revise by pairwise imitation.
  void step();

  [[nodiscard]] double defender_share() const noexcept;
  [[nodiscard]] double attacker_share() const noexcept;
  [[nodiscard]] State state() const noexcept {
    return {defender_share(), attacker_share()};
  }

 private:
  CoevolutionConfig config_;
  GameParams game_;
  common::Rng rng_;
  AttackOutcome attack_outcome_;
  std::vector<std::uint8_t> defender_strategy_;  // 1 = buffer-selection
  std::vector<std::uint8_t> attacker_strategy_;  // 1 = DoS
  std::vector<double> defender_accumulated_;
  std::vector<double> attacker_accumulated_;
  std::size_t rounds_since_revision_ = 0;
};

}  // namespace dap::game
