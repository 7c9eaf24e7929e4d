// Extension — agent-based validation of the replicator model: finite
// populations of imitating agents vs the ODE attractor, across regimes.

#include <iostream>

#include "bench_util.h"
#include "common/rng.h"
#include "game/ess.h"
#include "game/population.h"

int main(int argc, char** argv) {
  using namespace dap;
  bench::configure_threads(argc, argv);
  bench::banner(
      "Extension — finite-population imitation dynamics vs replicator ODE",
      "the bounded-rationality justification of Sec. V-A (nodes imitate "
      "successful peers)",
      "agent populations settle near the ODE's ESS in every regime");

  common::TextTable table({"m", "ESS (ODE)", "population mean (X, Y)",
                           "abs error"});
  common::CsvWriter csv(bench::csv_path("population_dynamics"),
                        {"m", "ess_x", "ess_y", "pop_x", "pop_y"});
  for (std::size_t m : {6u, 15u, 30u, 70u}) {
    const auto g = game::GameParams::paper_defaults(0.8, m);
    const auto ess = game::solve_ess(g);
    game::PopulationConfig config;
    config.defenders = 8000;
    config.attackers = 8000;
    game::PopulationSim sim(config, g, common::Rng(42 + m));
    const game::State mean = sim.run_and_average(30000, 5000).mean;
    const double err = std::max(std::abs(mean.x - ess.point.x),
                                std::abs(mean.y - ess.point.y));
    table.add_row({std::to_string(m), game::ess_kind_name(ess.kind),
                   "(" + common::format_number(mean.x) + ", " +
                       common::format_number(mean.y) + ")",
                   common::format_number(err)});
    csv.row({static_cast<double>(m), ess.point.x, ess.point.y, mean.x,
             mean.y});
  }
  std::cout << table.render();

  // --- Co-evolution on *sampled* payoffs: no agent knows p, m, Ra or
  //     the opponent mix; attack outcomes are Bernoulli(p^m) draws.
  std::cout << "\nco-evolution (pairwise imitation on realized payoffs "
               "only):\n";
  common::TextTable coevo_table({"m", "ESS (ODE)", "co-evolved mean (X, Y)",
                                 "abs error"});
  common::CsvWriter coevo_csv(bench::csv_path("coevolution"),
                              {"m", "ess_x", "ess_y", "coevo_x", "coevo_y"});
  for (std::size_t m : {6u, 15u, 30u, 70u}) {
    const auto g = game::GameParams::paper_defaults(0.8, m);
    const auto ess = game::solve_ess(g);
    game::CoevolutionConfig config;
    game::CoevolutionSim sim(config, g, common::Rng(99 + m));
    const auto w = sim.run_and_average(15000, 5000);
    const double err = std::max(std::abs(w.mean.x - ess.point.x),
                                std::abs(w.mean.y - ess.point.y));
    coevo_table.add_row({std::to_string(m), game::ess_kind_name(ess.kind),
                         "(" + common::format_number(w.mean.x) + ", " +
                             common::format_number(w.mean.y) + ")",
                         common::format_number(err)});
    coevo_csv.row({static_cast<double>(m), ess.point.x, ess.point.y,
                   w.mean.x, w.mean.y});
  }
  std::cout << coevo_table.render();
  std::cout << "\nnote: near X = 1 the attacker equilibrium shifts by "
               "~ -Ra(1-p^m)/(k1 xa) ~ -12 per unit of defender-mix "
               "perturbation,\nso the exploration-induced X offset shows up "
               "amplified in Y — the regimes remain unmistakable.\n";
  bench::footer("population_dynamics");
  return 0;
}
