// E5 / Table II — the attack-defence pay-off matrix instantiated at the
// paper's evaluation constants for a small (p, m, X, Y) grid.

#include <iostream>

#include "bench_util.h"
#include "game/params.h"

int main(int argc, char** argv) {
  using namespace dap;
  bench::configure_threads(argc, argv);
  bench::banner(
      "Table II — pay-off matrix between attackers and defenders",
      "ICDCS'16 DAP paper, Table II with Ra=200, k1=20, k2=4 (Sec. VI-B)",
      "defender: -Cd-P*Ld / -Cd / -Ld / 0; attacker: P*Ra-Ca / 0 / Ra-Ca / 0");

  common::CsvWriter csv(
      bench::csv_path("table2_payoff"),
      {"p", "m", "X", "Y", "dd_d", "dd_a", "dn_d", "dn_a", "nd_d", "nd_a"});
  for (double p : {0.5, 0.8, 0.95}) {
    for (std::size_t m : {std::size_t{4}, std::size_t{17}, std::size_t{50}}) {
      const auto g = game::GameParams::paper_defaults(p, m);
      // Evaluate at the mixed state the paper's evolution starts from.
      const double X = 0.5, Y = 0.5;
      const auto pm = game::payoff_matrix(g, X, Y);
      std::cout << "p=" << p << "  m=" << m << "  P=p^m="
                << common::format_number(g.attack_success())
                << "  at (X,Y)=(0.5,0.5)\n";
      common::TextTable table({"Defender \\ Attacker", "DoS attacks",
                               "No DoS attacks"});
      table.add_row({"Buffer selection",
                     common::format_number(pm.defend_attack_d) + ", " +
                         common::format_number(pm.defend_attack_a),
                     common::format_number(pm.defend_noattack_d) + ", " +
                         common::format_number(pm.defend_noattack_a)});
      table.add_row({"No buffers",
                     common::format_number(pm.nodefend_attack_d) + ", " +
                         common::format_number(pm.nodefend_attack_a),
                     common::format_number(pm.nodefend_noattack_d) + ", " +
                         common::format_number(pm.nodefend_noattack_a)});
      std::cout << table.render() << '\n';
      csv.row({p, static_cast<double>(m), X, Y, pm.defend_attack_d,
               pm.defend_attack_a, pm.defend_noattack_d, pm.defend_noattack_a,
               pm.nodefend_attack_d, pm.nodefend_attack_a});
    }
  }
  bench::footer("table2_payoff");
  return 0;
}
