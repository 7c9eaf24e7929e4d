// E10 — ablation of the replicator integrator: the paper's forward Euler
// (dt = 0.01) vs RK4, across the four ESS regimes at p = 0.8.

#include <cmath>
#include <iostream>

#include "bench_util.h"
#include "game/ess.h"
#include "game/replicator.h"

int main(int argc, char** argv) {
  using namespace dap;
  bench::configure_threads(argc, argv);
  bench::banner(
      "E10 — ablation: Euler (paper, dt=0.01) vs RK4 integration",
      "the numerical scheme of Sec. VI-B.2",
      "same attractor everywhere except the interior/boundary band "
      "m=17..18, where Euler sticks to X=1 (as in the paper's own runs)");

  common::TextTable table({"m", "closed-form ESS", "Euler final",
                           "RK4 final", "Euler steps", "RK4 steps",
                           "max |Euler - RK4|"});
  common::CsvWriter csv(bench::csv_path("ablate_integrator"),
                        {"m", "euler_x", "euler_y", "rk4_x", "rk4_y",
                         "euler_steps", "rk4_steps"});
  for (std::size_t m : {4u, 12u, 17u, 18u, 25u, 40u, 55u, 80u}) {
    const auto g = game::GameParams::paper_defaults(0.8, m);
    game::IntegrationOptions euler;
    euler.max_steps = 2000000;
    euler.convergence_eps = 1e-12;
    euler.record_every = 0;
    game::IntegrationOptions rk4 = euler;
    rk4.method = game::Integrator::kRk4;
    const auto a = game::integrate(g, {0.5, 0.5}, euler);
    const auto b = game::integrate(g, {0.5, 0.5}, rk4);
    const auto ess = game::solve_ess(g);
    const double diff = std::max(std::abs(a.final.x - b.final.x),
                                 std::abs(a.final.y - b.final.y));
    table.add_row(
        {std::to_string(m), game::ess_kind_name(ess.kind),
         "(" + common::format_number(a.final.x) + ", " +
             common::format_number(a.final.y) + ")",
         "(" + common::format_number(b.final.x) + ", " +
             common::format_number(b.final.y) + ")",
         std::to_string(a.steps), std::to_string(b.steps),
         common::format_number(diff)});
    csv.row({static_cast<double>(m), a.final.x, a.final.y, b.final.x,
             b.final.y, static_cast<double>(a.steps),
             static_cast<double>(b.steps)});
  }
  std::cout << table.render();
  bench::footer("ablate_integrator");
  return 0;
}
