// E13 — live protocol-family comparison at the same memory budget: the
// Fig. 5 message re-derived by simulation instead of formula. For one
// 1024-bit record budget, a TESLA++-style node affords 3 buffers (280-bit
// records) while DAP affords 18 (56-bit records); measured attack success
// under identical floods shows how far that separates the two, and a
// rate-limited medium run shows the enforced bandwidth fraction.

#include <cmath>
#include <iostream>

#include "analysis/figures.h"
#include "analysis/montecarlo.h"
#include "bench_util.h"
#include "dap/dap.h"
#include "sim/adversary.h"
#include "sim/event_queue.h"
#include "sim/medium.h"

int main(int argc, char** argv) {
  using namespace dap;
  bench::configure_threads(argc, argv);
  bench::banner(
      "E13 — protocol family under the same memory budget (live)",
      "the Fig. 5 / Sec. VI-A comparison, re-derived by simulation",
      "DAP's 5x buffer advantage turns the same flood from near-certain "
      "success into near-certain failure");

  const auto buffers = analysis::fig5_buffers({});
  common::TextTable table({"p", "TESLA++-style m=3 (1024b)",
                           "DAP m=18 (1024b)", "TESLA++-style m=1 (512b)",
                           "DAP m=9 (512b)"});
  common::CsvWriter csv(bench::csv_path("family_compare"),
                        {"p", "teslapp_1024", "dap_1024", "teslapp_512",
                         "dap_512"});
  for (double p : {0.5, 0.6, 0.7, 0.8, 0.9, 0.95}) {
    const auto run = [&](std::size_t m, std::uint64_t salt) {
      analysis::MonteCarloConfig config;
      config.p = p;
      config.m = m;
      config.trials = 1200;
      config.seed = 7000 + salt;
      return analysis::measure_attack_success(config)
          .measured_attack_success;
    };
    const double t_large = run(buffers.teslapp_large, 1);
    const double d_large = run(buffers.dap_large, 2);
    const double t_small = run(buffers.teslapp_small, 3);
    const double d_small = run(buffers.dap_small, 4);
    table.add_row_numeric({p, t_large, d_large, t_small, d_small});
    csv.row({p, t_large, d_large, t_small, d_small});
  }
  std::cout << table.render();
  std::cout << "\n(entries are measured attack-success rates; lower is "
               "better for the defender)\n\n";

  // --- Enforced bandwidth fraction: the attacker is physically capped.
  std::cout << "rate-limited medium run (attacker capped at 80% of the MAC "
               "channel, m=6):\n";
  sim::EventQueue queue;
  common::Rng rng(31);
  sim::Medium medium(queue, rng);
  protocol::DapConfig config;
  config.chain_length = 64;
  config.buffers = 6;
  config.schedule = sim::IntervalSchedule(0, sim::kSecond);
  protocol::DapSender sender(config, common::bytes_of("seed"));
  protocol::DapReceiver receiver(config, sender.chain().commitment(),
                                 common::bytes_of("local"),
                                 sim::LooseClock(0, 0), rng.fork(1));
  std::size_t authenticated = 0;
  medium.attach(
      [&](const wire::Packet& packet, sim::SimTime now) {
        if (const auto* a = std::get_if<wire::MacAnnounce>(&packet)) {
          receiver.receive(*a, now);
        } else if (const auto* r = std::get_if<wire::MessageReveal>(&packet)) {
          if (receiver.receive(*r, now)) ++authenticated;
        }
      },
      std::make_unique<sim::PerfectChannel>());

  // Attacker id 99 forges with the victim's sender id inside the packet,
  // but its own transmitter is the rate-limited entity. Here we cap the
  // *victim id* bucket for forged frames by using a distinct forger node
  // that the medium meters: approximate by capping the whole id and
  // sending the authentic frame first each interval.
  wire::MacAnnounce probe;
  probe.sender = config.sender_id;
  probe.mac = dap::common::InlineBytes<32>(common::Bytes(10, 0));
  const double frame_bits =
      static_cast<double>(wire::wire_bits(wire::Packet{probe}));
  medium.set_rate_limit(config.sender_id, 5.0 * frame_bits,
                        5.0 * frame_bits);
  sim::FloodingForger forger(config.sender_id, config.mac_size, rng.fork(2));

  const std::uint32_t intervals = 40;
  std::uint64_t forged_attempted = 0;
  for (std::uint32_t i = 1; i <= intervals; ++i) {
    queue.run_until(config.schedule.interval_start(i) + 1000);
    (void)medium.broadcast(wire::Packet{sender.announce(
        i, common::bytes_of("report"))});
    for (int f = 0; f < 30; ++f) {  // tries 30, bucket admits ~4 more
      ++forged_attempted;
      (void)medium.broadcast(wire::Packet{forger.forge(i)});
    }
    queue.run_until(config.schedule.interval_start(i + 1) + 1000);
    (void)medium.broadcast(wire::Packet{sender.reveal(i)});
  }
  queue.run();
  const std::uint64_t dropped =
      medium.rate_limited_drops(config.sender_id);
  std::cout << "  forged attempted: " << forged_attempted
            << ", dropped by the channel cap: " << dropped
            << " -> on-air forged fraction ~ "
            << common::format_number(
                   static_cast<double>(forged_attempted - dropped) /
                   static_cast<double>(forged_attempted - dropped +
                                       intervals))
            << "\n  authenticated " << authenticated << "/" << intervals
            << " (analytic at the capped p: 1 - p^6 ~ "
            << common::format_number(
                   1 - std::pow(0.8, 6))
            << ")\n";
  bench::footer("family_compare");
  return 0;
}
