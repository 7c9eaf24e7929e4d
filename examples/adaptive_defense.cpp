// Adaptive, game-driven defence: the paper's Sec. V put to work.
//
// The attack intensity changes over the run (calm -> moderate -> severe
// -> calm). The adaptive node estimates the forged fraction p̂ online and
// re-tunes its buffer count m with the evolutionary-game optimiser
// (Algorithm 3); a naive node keeps the maximum M = 50 buffers the whole
// time. The run prints the m trajectory and compares realized costs
// against the analytic E and N of Fig. 8.
//
//   ./build/examples/adaptive_defense

#include <cstdio>
#include <iostream>

#include "common/csv.h"
#include "common/rng.h"
#include "game/optimizer.h"
#include "obs/registry.h"
#include "sim/adversary.h"
#include "strategy/defender.h"

int main() {
  using namespace dap;

  protocol::DapConfig dap_config;
  dap_config.chain_length = 140;
  dap_config.buffers = 1;
  dap_config.schedule = sim::IntervalSchedule(0, sim::kSecond);
  strategy::AdaptiveConfig config;
  config.retune_period = 5;
  config.estimator_smoothing = 0.5;

  protocol::DapSender sender(dap_config, common::bytes_of("seed"));
  protocol::DapReceiver receiver(dap_config, sender.chain().commitment(),
                                 common::bytes_of("local-a"),
                                 sim::LooseClock(0, 0), common::Rng(1));
  strategy::AdaptiveDefender adaptive(config);

  // The naive baseline: fixed M = 50 buffers, always defending.
  protocol::DapConfig naive_config = dap_config;
  naive_config.buffers = game::kMaxBuffers;
  protocol::DapSender naive_sender(naive_config, common::bytes_of("seed"));
  protocol::DapReceiver naive(naive_config,
                              naive_sender.chain().commitment(),
                              common::bytes_of("local-n"),
                              sim::LooseClock(0, 0), common::Rng(2));
  double naive_cost = 0.0;
  std::uint64_t naive_losses = 0;

  sim::FloodingForger attacker(dap_config.sender_id, dap_config.mac_size,
                               common::Rng(3));

  // Attack phases: (intervals, forged copies per authentic one).
  struct Phase {
    std::uint32_t intervals;
    std::size_t forged;
    const char* label;
  };
  const Phase phases[] = {{30, 0, "calm (p=0)"},
                          {30, 4, "moderate (p=0.8)"},
                          {40, 19, "severe (p=0.95)"},
                          {30, 0, "calm again"}};

  const auto mid = [&](std::uint32_t i) {
    return (i - 1) * sim::kSecond + sim::kSecond / 2;
  };

  std::cout << "interval  phase              p-est   m(adaptive)  X(ess)\n"
            << "--------------------------------------------------------\n";
  std::uint32_t interval = 0;
  for (const auto& phase : phases) {
    for (std::uint32_t k = 0; k < phase.intervals; ++k) {
      ++interval;
      const auto announce_a =
          sender.announce(interval, common::bytes_of("telemetry"));
      const auto announce_n =
          naive_sender.announce(interval, common::bytes_of("telemetry"));
      receiver.receive(announce_a, mid(interval));
      naive.receive(announce_n, mid(interval));
      for (std::size_t f = 0; f < phase.forged; ++f) {
        receiver.receive(attacker.forge(interval), mid(interval));
        naive.receive(attacker.forge(interval), mid(interval));
      }
      (void)receiver.receive(sender.reveal(interval), mid(interval + 1));
      const bool naive_ok =
          naive.receive(naive_sender.reveal(interval), mid(interval + 1))
              .has_value();
      adaptive.close_interval(receiver, 1 + phase.forged);
      naive_cost += config.game.k2 * static_cast<double>(game::kMaxBuffers);
      if (!naive_ok) {
        naive_cost += config.game.Ra;
        ++naive_losses;
      }
      if (interval % 10 == 0) {
        std::printf("%8u  %-16s  %5.3f  %11zu  %5.3f\n", interval,
                    phase.label, adaptive.estimated_p(), receiver.buffers(),
                    adaptive.stats().defense_share_x);
      }
    }
  }

  const auto& stats = adaptive.stats();
  std::cout << "\nresults over " << interval << " intervals:\n";
  std::cout << "  adaptive: defeated " << stats.attacks_defeated
            << ", lost " << stats.attacks_succeeded
            << ", realized avg cost/interval "
            << common::format_number(adaptive.average_cost()) << '\n';
  std::cout << "  naive (m=50): lost " << naive_losses
            << ", realized avg cost/interval "
            << common::format_number(naive_cost /
                                     static_cast<double>(interval))
            << '\n';
  std::cout << "\nanalytic reference (Fig. 8) at p=0.95: E="
            << common::format_number(
                   game::optimize_m(game::GameParams::paper_defaults(0.95, 1),
                                    game::OptimizeMode::kPaperInterior)
                       .cost)
            << "  N="
            << common::format_number(game::naive_cost(
                   game::GameParams::paper_defaults(0.95, 1)))
            << '\n';
  std::cout << "\nNote: the realized ledger charges k2*m while the analytic "
               "E also weighs the\nESS shares (X, Y); shapes match — the "
               "adaptive node spends far less in calm\nphases and survives "
               "the severe phase with near-naive reliability.\n";

  // End-of-run telemetry (both receivers aggregated) from the registry —
  // DAP counters, solver latencies, crypto primitive histograms.
  std::cout << "\nend-of-run telemetry:\n"
            << obs::Registry::global().report();
  return 0;
}
