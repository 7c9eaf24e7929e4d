// E1 / Fig. 5 — attacker bandwidth fraction x_m = P^(1/m)·(1-x_d)
// required to reach attack-success target P, for TESLA++ (280-bit
// records) vs DAP (56-bit records) at two memory budgets.

#include <iostream>

#include "analysis/figures.h"
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace dap;
  bench::configure_threads(argc, argv);
  bench::banner(
      "Fig. 5 — required attacker bandwidth fraction vs attack level",
      "ICDCS'16 DAP paper, Fig. 5 (evaluation settings of Sec. VI-A)",
      "DAP curves strictly above TESLA++ (attacker must spend more); "
      "larger memory budget above smaller");

  const analysis::Fig5Settings settings;
  const auto buffers = analysis::fig5_buffers(settings);
  std::cout << "buffers: TESLA++/1024=" << buffers.teslapp_large
            << " TESLA++/512=" << buffers.teslapp_small
            << " DAP/1024=" << buffers.dap_large
            << " DAP/512=" << buffers.dap_small << "\n\n";

  const auto rows = analysis::fig5_series(settings);
  common::TextTable table({"P(target)", "TESLA++ 1024", "TESLA++ 512",
                           "DAP 1024", "DAP 512"});
  common::CsvWriter csv(bench::csv_path("fig5_bandwidth"),
                        {"P", "xm_teslapp_1024", "xm_teslapp_512",
                         "xm_dap_1024", "xm_dap_512"});
  common::Series s1{"TESLA++ 1024", {}, {}};
  common::Series s2{"TESLA++ 512", {}, {}};
  common::Series s3{"DAP 1024", {}, {}};
  common::Series s4{"DAP 512", {}, {}};
  for (const auto& row : rows) {
    table.add_row_numeric({row.attack_success_target, row.xm_teslapp_large,
                           row.xm_teslapp_small, row.xm_dap_large,
                           row.xm_dap_small});
    csv.row({row.attack_success_target, row.xm_teslapp_large,
             row.xm_teslapp_small, row.xm_dap_large, row.xm_dap_small});
    s1.xs.push_back(row.attack_success_target);
    s1.ys.push_back(row.xm_teslapp_large);
    s2.xs.push_back(row.attack_success_target);
    s2.ys.push_back(row.xm_teslapp_small);
    s3.xs.push_back(row.attack_success_target);
    s3.ys.push_back(row.xm_dap_large);
    s4.xs.push_back(row.attack_success_target);
    s4.ys.push_back(row.xm_dap_small);
  }
  std::cout << table.render() << '\n';
  common::ChartOptions options;
  options.title = "attacker bandwidth fraction x_m vs attack success target P";
  options.x_label = "P";
  options.y_label = "x_m";
  std::cout << common::render_chart({s1, s2, s3, s4}, options);
  bench::footer("fig5_bandwidth");
  return 0;
}
