#include "game/population.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace dap::game {
namespace {

/// Binomial(n, prob) draw: n Bernoulli trials for n <= 256, else one
/// Box–Muller normal approximation clamped to [0, n].
std::size_t binomial(common::Rng& rng, std::size_t n, double prob) {
  if (n <= 256) {
    std::size_t hits = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.bernoulli(prob)) ++hits;
    }
    return hits;
  }
  const double mean = static_cast<double>(n) * prob;
  const double sd = std::sqrt(mean * (1.0 - prob));
  const double u1 = std::max(rng.next_double(), 1e-12);
  const double u2 = rng.next_double();
  const double z = std::sqrt(-2.0 * std::log(u1)) *
                   std::cos(2.0 * std::numbers::pi * u2);
  return static_cast<std::size_t>(
      std::clamp(mean + sd * z, 0.0, static_cast<double>(n)));
}

}  // namespace

// ------------------------------------------------------------ PopulationSim

PopulationSim::PopulationSim(const PopulationConfig& config,
                             const GameParams& game, common::Rng rng)
    : config_(config), game_(game), rng_(rng) {
  GameParams::validate(game_);
  if (config_.defenders == 0 || config_.attackers == 0) {
    throw std::invalid_argument("PopulationSim: empty population");
  }
  if (config_.initial_x < 0 || config_.initial_x > 1 ||
      config_.initial_y < 0 || config_.initial_y > 1) {
    throw std::invalid_argument("PopulationSim: initial shares in [0,1]");
  }
  if (config_.imitation_rate <= 0) {
    throw std::invalid_argument("PopulationSim: imitation_rate > 0");
  }
  if (config_.mutation_rate < 0 || config_.mutation_rate > 1) {
    throw std::invalid_argument("PopulationSim: mutation_rate in [0,1]");
  }
  defending_ = static_cast<std::size_t>(std::llround(
      config_.initial_x * static_cast<double>(config_.defenders)));
  attacking_ = static_cast<std::size_t>(std::llround(
      config_.initial_y * static_cast<double>(config_.attackers)));
}

double PopulationSim::defender_share() const noexcept {
  return static_cast<double>(defending_) /
         static_cast<double>(config_.defenders);
}

double PopulationSim::attacker_share() const noexcept {
  return static_cast<double>(attacking_) /
         static_cast<double>(config_.attackers);
}

void PopulationSim::step() {
  const double X = defender_share();
  const double Y = attacker_share();
  const auto payoff = payoff_matrix(game_, X, Y);

  // Expected payoff of each pure strategy against the opposing mix.
  const double u_defend =
      Y * payoff.defend_attack_d + (1 - Y) * payoff.defend_noattack_d;
  const double u_no_defend =
      Y * payoff.nodefend_attack_d + (1 - Y) * payoff.nodefend_noattack_d;
  const double u_attack =
      X * payoff.defend_attack_a + (1 - X) * payoff.nodefend_attack_a;
  const double u_no_attack =
      X * payoff.defend_noattack_a + (1 - X) * payoff.nodefend_noattack_a;

  // Pairwise proportional imitation, aggregated over the population:
  // the expected flow matches X(1-X)(u_d - u_nd) * rate (replicator),
  // realized with binomial noise by sampling switch events.
  const auto flow = [this](std::size_t with, std::size_t total,
                           double payoff_gap) -> std::ptrdiff_t {
    const double share = static_cast<double>(with) /
                         static_cast<double>(total);
    const double meet = share * (1.0 - share);
    const double prob =
        std::clamp(std::abs(payoff_gap) * config_.imitation_rate * meet,
                   0.0, 1.0);
    const auto switchers =
        static_cast<std::ptrdiff_t>(binomial(rng_, total, prob));
    return payoff_gap >= 0 ? switchers : -switchers;
  };

  // Mutation: each agent independently flips strategy with a small
  // probability, keeping boundaries non-absorbing.
  const auto mutation_flow = [this](std::size_t with,
                                    std::size_t total) -> std::ptrdiff_t {
    if (config_.mutation_rate <= 0.0) return 0;
    const auto in = static_cast<std::ptrdiff_t>(
        binomial(rng_, total - with, config_.mutation_rate));
    const auto out = static_cast<std::ptrdiff_t>(
        binomial(rng_, with, config_.mutation_rate));
    return in - out;
  };

  const auto apply = [](std::size_t current, std::ptrdiff_t delta,
                        std::size_t total) {
    const auto next = static_cast<std::ptrdiff_t>(current) + delta;
    return static_cast<std::size_t>(std::clamp<std::ptrdiff_t>(
        next, 0, static_cast<std::ptrdiff_t>(total)));
  };
  // Draw order: defender imitation, defender mutation, then the same for
  // attackers. Both flows read the shares from before this round.
  std::ptrdiff_t d_flow =
      flow(defending_, config_.defenders, u_defend - u_no_defend);
  d_flow += mutation_flow(defending_, config_.defenders);
  std::ptrdiff_t a_flow =
      flow(attacking_, config_.attackers, u_attack - u_no_attack);
  a_flow += mutation_flow(attacking_, config_.attackers);
  defending_ = apply(defending_, d_flow, config_.defenders);
  attacking_ = apply(attacking_, a_flow, config_.attackers);
}

// ----------------------------------------------------------- CoevolutionSim

CoevolutionSim::CoevolutionSim(const CoevolutionConfig& config,
                               const GameParams& game, common::Rng rng)
    : config_(config), game_(game), rng_(rng) {
  GameParams::validate(game_);
  if (config_.defenders == 0 || config_.attackers == 0) {
    throw std::invalid_argument("CoevolutionSim: empty population");
  }
  if (config_.imitation_rate <= 0) {
    throw std::invalid_argument("CoevolutionSim: imitation_rate > 0");
  }
  if (config_.mutation_rate < 0 || config_.mutation_rate > 1) {
    throw std::invalid_argument("CoevolutionSim: mutation_rate in [0,1]");
  }
  if (config_.initial_x < 0 || config_.initial_x > 1 ||
      config_.initial_y < 0 || config_.initial_y > 1) {
    throw std::invalid_argument("CoevolutionSim: initial shares in [0,1]");
  }
  if (config_.observation_rounds == 0) {
    throw std::invalid_argument("CoevolutionSim: observation_rounds >= 1");
  }
  defender_strategy_.resize(config_.defenders);
  attacker_strategy_.resize(config_.attackers);
  defender_accumulated_.assign(config_.defenders, 0.0);
  attacker_accumulated_.assign(config_.attackers, 0.0);
  for (std::size_t i = 0; i < config_.defenders; ++i) {
    defender_strategy_[i] = rng_.bernoulli(config_.initial_x) ? 1 : 0;
  }
  for (std::size_t i = 0; i < config_.attackers; ++i) {
    attacker_strategy_[i] = rng_.bernoulli(config_.initial_y) ? 1 : 0;
  }
  const double p_success = game_.attack_success();
  attack_outcome_ = [p_success](common::Rng& r) {
    return r.bernoulli(p_success);
  };
}

void CoevolutionSim::set_attack_outcome(AttackOutcome outcome) {
  if (!outcome) {
    throw std::invalid_argument("CoevolutionSim: null outcome model");
  }
  attack_outcome_ = std::move(outcome);
}

double CoevolutionSim::defender_share() const noexcept {
  std::size_t count = 0;
  for (auto s : defender_strategy_) count += s;
  return static_cast<double>(count) /
         static_cast<double>(defender_strategy_.size());
}

double CoevolutionSim::attacker_share() const noexcept {
  std::size_t count = 0;
  for (auto s : attacker_strategy_) count += s;
  return static_cast<double>(count) /
         static_cast<double>(attacker_strategy_.size());
}

void CoevolutionSim::step() {
  const double X = defender_share();
  const double Y = attacker_share();
  const double m = static_cast<double>(game_.m);
  const double Cd = game_.k2 * m * X;       // Table I: cost scales with X
  const double Ca = game_.k1 * game_.xa * Y;  // and with Y

  // --- Realize one round of payoffs per agent (accumulated until the
  //     next revision round).
  for (std::size_t i = 0; i < defender_strategy_.size(); ++i) {
    const bool attacked = rng_.bernoulli(Y);
    double payoff = 0.0;
    if (defender_strategy_[i]) {
      payoff -= Cd;
      if (attacked && attack_outcome_(rng_)) payoff -= game_.Ra;
    } else if (attacked) {
      payoff -= game_.Ra;
    }
    defender_accumulated_[i] += payoff;
  }
  for (std::size_t i = 0; i < attacker_strategy_.size(); ++i) {
    double payoff = 0.0;
    if (attacker_strategy_[i]) {
      // Attack a random network node; defended targets only fall with
      // the (sampled) flooding-success outcome.
      const bool target_defends = rng_.bernoulli(X);
      const bool success = target_defends ? attack_outcome_(rng_) : true;
      payoff = (success ? game_.Ra : 0.0) - Ca;
    }
    attacker_accumulated_[i] += payoff;
  }

  if (++rounds_since_revision_ < config_.observation_rounds) return;
  rounds_since_revision_ = 0;
  const double window = static_cast<double>(config_.observation_rounds);

  // --- Pairwise proportional imitation on window-averaged payoffs.
  const auto revise = [this, window](std::vector<std::uint8_t>& strategy,
                                     std::vector<double>& accumulated) {
    std::vector<std::uint8_t> next = strategy;
    const std::size_t n = strategy.size();
    for (std::size_t i = 0; i < n; ++i) {
      const auto peer = static_cast<std::size_t>(rng_.uniform(0, n - 1));
      const double own = accumulated[i] / window;
      const double theirs = accumulated[peer] / window;
      if (strategy[peer] != strategy[i] && theirs > own) {
        const double probability =
            std::min(1.0, config_.imitation_rate * (theirs - own));
        if (rng_.bernoulli(probability)) next[i] = strategy[peer];
      }
      if (rng_.bernoulli(config_.mutation_rate)) next[i] ^= 1;
    }
    strategy.swap(next);
    std::fill(accumulated.begin(), accumulated.end(), 0.0);
  };
  revise(defender_strategy_, defender_accumulated_);
  revise(attacker_strategy_, attacker_accumulated_);
}

}  // namespace dap::game
