// E15 — the abstract's claim: DAP under low-QoS channels AND severe DoS
// attacks simultaneously. Prints the measured authentication-success
// grid next to the analytic reference.

#include <iostream>

#include "analysis/extreme.h"
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace dap;
  bench::configure_threads(argc, argv);
  bench::banner(
      "E15 — extreme conditions: channel loss x DoS intensity (m=18)",
      "the abstract / Sec. I claim: 'works even in the extreme case'",
      "success degrades gracefully along both axes and stays well above "
      "zero at loss=0.5, p=0.95");

  analysis::ExtremeGridConfig config;
  const auto grid = analysis::extreme_conditions_grid(config);

  common::TextTable table(
      {"loss \\ p", "0.5", "0.8", "0.9", "0.95"});
  common::CsvWriter csv(bench::csv_path("extreme_conditions"),
                        {"loss", "p", "measured", "analytic"});
  std::size_t index = 0;
  for (double loss : config.losses) {
    std::vector<std::string> row{common::format_number(loss)};
    for (std::size_t pi = 0; pi < config.ps.size(); ++pi) {
      const auto& cell = grid[index++];
      row.push_back(common::format_number(cell.measured_success) + " (" +
                    common::format_number(cell.analytic) + ")");
      csv.row({cell.loss, cell.p, cell.measured_success, cell.analytic});
    }
    table.add_row(row);
  }
  std::cout << table.render();
  std::cout << "\ncells: measured success (analytic reference "
               "(1-loss^3)(1-p^m)(1-loss^2));\nmeasured >= analytic at low "
               "p because small delivered floods are hypergeometric-\n"
               "favourable to the reservoir (see E7).\n";
  bench::footer("extreme_conditions");
  return 0;
}
