// E2 / Fig. 6 — evolution of (X, Y) under the replicator dynamics at
// p = 0.8 from (0.5, 0.5) with the paper's Euler step dt = 0.01:
// four panels (one per ESS regime) plus the full m = 1..100 regime scan.

#include <iostream>

#include "analysis/figures.h"
#include "bench_util.h"
#include "game/ess.h"

int main(int argc, char** argv) {
  using namespace dap;
  bench::configure_threads(argc, argv);
  bench::banner(
      "Fig. 6 — evolution process of the evolutionary game (p = 0.8)",
      "ICDCS'16 DAP paper, Fig. 6(a)-(d) and the regime list of Sec. VI-B.2",
      "(1,1) for m<=11; (1,Y') next (paper: m<=17); interior spiral up to "
      "m=54; (X',1) from m=55");

  // --- Panels: one representative m per regime.
  struct Panel {
    std::size_t m;
    const char* label;
  };
  const Panel panels[] = {{6, "(a) m=6  -> ESS (1,1)"},
                          {15, "(b) m=15 -> ESS (1,Y')"},
                          {30, "(c) m=30 -> ESS (X*,Y*) spiral"},
                          {70, "(d) m=70 -> ESS (X',1)"}};
  common::CsvWriter traj_csv(bench::csv_path("fig6_trajectories"),
                             {"m", "step", "X", "Y"});
  for (const auto& panel : panels) {
    const auto panel_timer = bench::scoped_timer("fig6_panel");
    const auto traj = analysis::fig6_trajectory(0.8, panel.m);
    common::Series sx{"X (defenders buffering)", {}, {}};
    common::Series sy{"Y (attackers attacking)", {}, {}};
    for (std::size_t i = 0; i < traj.points.size(); ++i) {
      const double step = static_cast<double>(i * 10);  // record_every=10
      sx.xs.push_back(step);
      sx.ys.push_back(traj.points[i].x);
      sy.xs.push_back(step);
      sy.ys.push_back(traj.points[i].y);
      traj_csv.row({static_cast<double>(panel.m), step, traj.points[i].x,
                    traj.points[i].y});
    }
    common::ChartOptions options;
    options.title = panel.label;
    options.x_label = "Euler steps (dt=0.01)";
    options.height = 14;
    std::cout << common::render_chart({sx, sy}, options);
    std::cout << "  converged to (" << common::format_number(traj.final.x)
              << ", " << common::format_number(traj.final.y) << ") in "
              << traj.steps << " steps\n\n";
  }

  // --- Regime scan m = 1..100.
  const auto rows = [&] {
    const auto scan_timer = bench::scoped_timer("fig6_regime_scan");
    return analysis::fig6_regime_scan(0.8, 100);
  }();
  common::TextTable table(
      {"m", "ESS (closed form)", "X", "Y", "Euler X", "Euler Y", "agree"});
  common::CsvWriter csv(bench::csv_path("fig6_regimes"),
                        {"m", "kind", "X", "Y", "euler_X", "euler_Y"});
  const char* last_kind = "";
  for (const auto& row : rows) {
    const char* kind = game::ess_kind_name(row.ess.kind);
    csv.row_text({std::to_string(row.m), kind,
                  common::format_number(row.ess.point.x),
                  common::format_number(row.ess.point.y),
                  common::format_number(row.simulated.x),
                  common::format_number(row.simulated.y)});
    // Print regime boundaries plus a sparse sample, not all 100 rows.
    const bool boundary = std::string(kind) != last_kind;
    if (boundary || row.m % 10 == 0) {
      table.add_row({std::to_string(row.m), kind,
                     common::format_number(row.ess.point.x),
                     common::format_number(row.ess.point.y),
                     common::format_number(row.simulated.x),
                     common::format_number(row.simulated.y),
                     row.agrees ? "yes" : "boundary-artifact"});
    }
    last_kind = kind;
  }
  std::cout << table.render();
  std::cout << "\nnote: at m=17..18 the paper-faithful Euler run sticks to "
               "the X=1 boundary\n(the paper's own regime list shows the "
               "same artifact: it reports (1,Y') up to m=17).\n";
  bench::footer("fig6_regimes");
  return 0;
}
