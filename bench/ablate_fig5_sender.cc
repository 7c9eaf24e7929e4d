// E11 — complementary Fig. 5 reading: the *sender's* MAC-rebroadcast
// bandwidth needed to hold a defence-success target against a fixed-rate
// flooder, for the same four (protocol, memory) combinations.

#include <iostream>

#include "analysis/figures.h"
#include "bench_util.h"
#include "common/stats.h"
#include "game/bandwidth.h"

int main(int argc, char** argv) {
  using namespace dap;
  bench::configure_threads(argc, argv);
  bench::banner(
      "E11 — sender MAC bandwidth for a defence target (Fig. 5 dual)",
      "the bandwidth discussion of Sec. VI-A, sender-side reading "
      "(see DESIGN.md interpretation note)",
      "DAP needs substantially LESS sender bandwidth than TESLA++ for "
      "the same defence guarantee");

  const analysis::Fig5Settings settings;
  const auto buffers = analysis::fig5_buffers(settings);
  const double attacker_rate = 0.4;  // flooder occupies 40% of the channel

  common::TextTable table({"P_def target", "TESLA++ 1024", "TESLA++ 512",
                           "DAP 1024", "DAP 512"});
  common::CsvWriter csv(bench::csv_path("ablate_fig5_sender"),
                        {"P_def", "xm_teslapp_1024", "xm_teslapp_512",
                         "xm_dap_1024", "xm_dap_512"});
  common::Series s1{"TESLA++ 1024", {}, {}};
  common::Series s3{"DAP 1024", {}, {}};
  for (double target : common::linspace(0.5, 0.99, 15)) {
    const double t1 = game::sender_mac_bandwidth_required(
        target, buffers.teslapp_large, attacker_rate);
    const double t2 = game::sender_mac_bandwidth_required(
        target, buffers.teslapp_small, attacker_rate);
    const double d1 = game::sender_mac_bandwidth_required(
        target, buffers.dap_large, attacker_rate);
    const double d2 = game::sender_mac_bandwidth_required(
        target, buffers.dap_small, attacker_rate);
    table.add_row_numeric({target, t1, t2, d1, d2});
    csv.row({target, t1, t2, d1, d2});
    s1.xs.push_back(target);
    s1.ys.push_back(t1);
    s3.xs.push_back(target);
    s3.ys.push_back(d1);
  }
  std::cout << table.render() << '\n';
  common::ChartOptions options;
  options.title =
      "sender MAC bandwidth vs defence target (flooder at 0.4)";
  options.x_label = "P_def";
  options.y_label = "x_m (sender)";
  std::cout << common::render_chart({s1, s3}, options);
  bench::footer("ablate_fig5_sender");
  return 0;
}
