// E9 — ablation of the buffer selection policy: the paper's reservoir
// (keep k-th copy w.p. m/k) vs naive-drop and always-replace, under
// early, late, and interleaved flood bursts.

#include <iostream>

#include "analysis/montecarlo.h"
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace dap;
  bench::configure_threads(argc, argv);
  bench::banner(
      "E9 — ablation: buffer policy x flood timing (p=0.85, m=4)",
      "the multiple-buffer random-selection design of Sec. IV-A",
      "reservoir ~ p^m regardless of timing; naive-drop collapses under "
      "early bursts; always-replace collapses under late bursts");

  const struct {
    const char* name;
    protocol::BufferPolicy policy;
  } policies[] = {
      {"reservoir (paper)", protocol::BufferPolicy::kReservoir},
      {"naive-drop", protocol::BufferPolicy::kNaiveDrop},
      {"always-replace", protocol::BufferPolicy::kAlwaysReplace},
  };
  const struct {
    const char* name;
    analysis::FloodTiming timing;
  } timings[] = {
      {"burst-early", analysis::FloodTiming::kBeforeAuthentic},
      {"burst-late", analysis::FloodTiming::kAfterAuthentic},
      {"interleaved", analysis::FloodTiming::kInterleaved},
  };

  common::TextTable table({"policy", "flood timing",
                           "attack success (measured)", "analytic p^m"});
  common::CsvWriter csv(bench::csv_path("ablate_buffer_policy"),
                        {"policy", "timing", "measured", "analytic"});
  for (const auto& policy : policies) {
    for (const auto& timing : timings) {
      analysis::MonteCarloConfig config;
      config.p = 0.85;
      config.m = 4;
      config.trials = 2000;
      config.policy = policy.policy;
      config.timing = timing.timing;
      config.seed = 99;
      const auto result = analysis::measure_attack_success(config);
      table.add_row({policy.name, timing.name,
                     common::format_number(result.measured_attack_success),
                     common::format_number(result.analytic)});
      csv.row_text({policy.name, timing.name,
                    common::format_number(result.measured_attack_success),
                    common::format_number(result.analytic)});
    }
  }
  std::cout << table.render();
  std::cout << "\nreading: only the reservoir policy is timing-oblivious — "
               "exactly why the paper floods lose their leverage.\n";
  bench::footer("ablate_buffer_policy");
  return 0;
}
