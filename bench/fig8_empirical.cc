// E14 / Fig. 8 (empirical) — the defence-cost comparison re-measured on
// real DAP receivers: populations of nodes playing the ESS mixed
// strategy against genuine floods, with attack outcomes coming from the
// protocol (reservoir buffers + μMAC auth), not from the p^m formula.

#include <iostream>

#include "analysis/empirical.h"
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace dap;
  bench::configure_threads(argc, argv);
  bench::banner(
      "Fig. 8 (empirical) — measured population cost, game vs naive",
      "ICDCS'16 DAP paper, Fig. 8, with protocol-level attack outcomes",
      "measured E and N track the analytic curves; E <= N throughout");

  common::TextTable table({"p", "m*", "ESS", "E analytic", "E measured",
                           "N analytic", "N measured",
                           "defended-round losses"});
  common::CsvWriter csv(bench::csv_path("fig8_empirical"),
                        {"p", "m", "E_analytic", "E_measured", "N_analytic",
                         "N_measured"});
  for (double p : {0.6, 0.8, 0.9, 0.95}) {
    analysis::EmpiricalCostConfig config;
    config.p = p;
    config.nodes = 60;
    config.intervals = 25;
    config.seed = 5150 + static_cast<std::uint64_t>(p * 1000);
    const auto r = analysis::empirical_defense_cost(config);
    table.add_row(
        {common::format_number(p), std::to_string(r.m_opt),
         game::ess_kind_name(r.ess.kind),
         common::format_number(r.analytic_E),
         common::format_number(r.empirical_E),
         common::format_number(r.analytic_N),
         common::format_number(r.empirical_N),
         std::to_string(r.rounds_lost_defended) + "/" +
             std::to_string(r.rounds_defended)});
    csv.row({p, static_cast<double>(r.m_opt), r.analytic_E, r.empirical_E,
             r.analytic_N, r.empirical_N});
  }
  std::cout << table.render();
  std::cout << "\nreading: the analytic model's only protocol assumption is "
               "P = p^m; with real\nreceivers the measured costs land on "
               "the analytic curves, and the measured\nE stays below the "
               "measured N at every attack level.\n";
  bench::footer("fig8_empirical");
  return 0;
}
