// E4 / Fig. 8 — average defence cost vs attack level: evolutionary-game
// guided defence E against the naive always-defend-with-M-buffers cost N.

#include <iostream>

#include "analysis/figures.h"
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace dap;
  bench::configure_threads(argc, argv);
  bench::banner(
      "Fig. 8 — average defence cost at different DoS levels",
      "ICDCS'16 DAP paper, Fig. 8",
      "E <= N everywhere; E saturates at Ra = 200 past the regime flip "
      "while N keeps climbing (biggest gap at p ~ 1)");

  const auto rows = analysis::fig8_series(analysis::default_p_sweep());
  common::TextTable table({"p", "m*", "E (game)", "N (naive)", "saving"});
  common::CsvWriter csv(bench::csv_path("fig8_defense_cost"),
                        {"p", "m_opt", "E_game", "N_naive"});
  common::Series se{"E (game-guided)", {}, {}};
  common::Series sn{"N (naive, m=50)", {}, {}};
  for (const auto& row : rows) {
    table.add_row({common::format_number(row.p), std::to_string(row.m_opt),
                   common::format_number(row.cost_game),
                   common::format_number(row.cost_naive),
                   common::format_number(row.cost_naive - row.cost_game)});
    csv.row({row.p, static_cast<double>(row.m_opt), row.cost_game,
             row.cost_naive});
    se.xs.push_back(row.p);
    se.ys.push_back(row.cost_game);
    sn.xs.push_back(row.p);
    sn.ys.push_back(row.cost_naive);
  }
  std::cout << table.render() << '\n';
  common::ChartOptions options;
  options.title = "defender cost vs attack level p";
  options.x_label = "p";
  options.y_label = "cost";
  std::cout << common::render_chart({se, sn}, options);
  bench::footer("fig8_defense_cost");
  return 0;
}
