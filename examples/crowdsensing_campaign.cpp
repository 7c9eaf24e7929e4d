// Crowdsensing campaign: the paper's motivating scenario end-to-end.
//
// A base station broadcasts sensing tasks to a fleet of mobile nodes
// over a lossy wireless broadcast medium. A DoS attacker floods forged
// MAC announcements at a configurable intensity. Every node runs the
// DAP receiver with m buffers; the run reports per-node authentication
// rates, memory use, and the attacker's actual success rate against the
// analytic p^m.
//
//   ./build/examples/crowdsensing_campaign [p=0.8] [m=6] [nodes=20]

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "common/csv.h"
#include "common/rng.h"
#include "common/stats.h"
#include "dap/dap.h"
#include "sim/adversary.h"
#include "sim/channel.h"
#include "sim/event_queue.h"
#include "sim/medium.h"

int main(int argc, char** argv) {
  using namespace dap;

  const double p = argc > 1 ? std::atof(argv[1]) : 0.8;
  const std::size_t m = argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 6;
  const std::size_t node_count =
      argc > 3 ? static_cast<std::size_t>(std::atoi(argv[3])) : 20;
  const std::uint32_t intervals = 50;

  std::cout << "crowdsensing campaign: p=" << p << " m=" << m << " nodes="
            << node_count << " intervals=" << intervals << "\n\n";

  sim::EventQueue queue;
  common::Rng rng(2026);
  sim::Medium medium(queue, rng);

  protocol::DapConfig config;
  config.chain_length = intervals + 4;
  config.buffers = m;
  config.schedule = sim::IntervalSchedule(0, sim::kSecond);
  protocol::DapSender base_station(config, common::bytes_of("campaign-42"));

  // --- Mobile nodes: skewed clocks, independent lossy links, private
  //     local keys, their own RNG streams.
  struct NodeState {
    protocol::DapReceiver receiver;
    std::size_t authenticated = 0;
  };
  std::vector<NodeState> nodes;
  nodes.reserve(node_count);
  for (std::size_t n = 0; n < node_count; ++n) {
    common::Rng node_rng = rng.fork(n + 1);
    nodes.push_back(NodeState{
        protocol::DapReceiver(
            config, base_station.chain().commitment(), node_rng.bytes(16),
            sim::LooseClock::random(node_rng, 20 * sim::kMillisecond),
            node_rng.fork(1)),
        0});
  }
  for (std::size_t n = 0; n < node_count; ++n) {
    medium.attach(
        [&nodes, n](const wire::Packet& packet, sim::SimTime now) {
          auto& node = nodes[n];
          if (const auto* a = std::get_if<wire::MacAnnounce>(&packet)) {
            node.receiver.receive(*a, now);
          } else if (const auto* r =
                         std::get_if<wire::MessageReveal>(&packet)) {
            if (node.receiver.receive(*r, now)) ++node.authenticated;
          }
        },
        std::make_unique<sim::BernoulliChannel>(0.05),
        2 * sim::kMillisecond);
  }

  // --- Attacker floods to forged fraction p (per authentic copy).
  sim::FloodingForger attacker(config.sender_id, config.mac_size,
                               rng.fork(999));
  const std::size_t forged_per_interval =
      sim::FloodingForger::copies_for_fraction(1, p);

  for (std::uint32_t i = 1; i <= intervals; ++i) {
    queue.schedule_at(config.schedule.interval_start(i) + 1000, [&, i] {
      medium.broadcast(
          wire::Packet{base_station.announce(i, common::bytes_of(
              "sense: air-quality cell " + std::to_string(i)))});
      attacker.flood(medium, i, forged_per_interval);
    });
    queue.schedule_at(config.schedule.interval_start(i + 1) + 1000, [&, i] {
      medium.broadcast(wire::Packet{base_station.reveal(i)});
    });
  }
  queue.run();

  // --- Report.
  common::RunningStats auth_rate;
  common::RunningStats memory_bits;
  for (const auto& node : nodes) {
    auth_rate.add(static_cast<double>(node.authenticated) / intervals);
    memory_bits.add(static_cast<double>(node.receiver.stored_record_bits()));
  }
  const double analytic_defense = 1.0 - std::pow(p, static_cast<double>(m));
  const std::size_t announce_bits = wire::wire_bits(
      wire::Packet{attacker.forge(1)});
  const double attacker_share =
      static_cast<double>(attacker.packets_forged() * announce_bits) /
      static_cast<double>(medium.total_bits());
  std::cout << "per-node authentication rate: mean "
            << common::format_number(auth_rate.mean()) << " (min "
            << common::format_number(auth_rate.min()) << ", max "
            << common::format_number(auth_rate.max()) << ")\n"
            << "large-flood analytic defence success 1-p^m = "
            << common::format_number(analytic_defense)
            << "; with this small per-interval flood the reservoir does "
               "even better\n(hypergeometric, see EXPERIMENTS.md E7), so "
               "losses are dominated by the ~0.95^2\nlink delivery of "
               "announce+reveal.\n"
            << "attacker packets forged: " << attacker.packets_forged()
            << " (" << common::format_number(attacker_share * 100)
            << "% of medium bits)\n"
            << "residual buffered records per node (bits): mean "
            << common::format_number(memory_bits.mean()) << '\n';
  std::cout << "\nmedium counters:\n"
            << medium.registry().report(/*skip_zero_counters=*/true);
  return 0;
}
