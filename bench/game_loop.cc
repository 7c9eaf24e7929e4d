// Game-loop bench: closes the evolutionary-game loop online.
//
// Part 1 — ESS convergence: the adaptive flooding adversary re-tunes its
// attack share along discretized replicator dynamics from observed
// per-interval authentication outcomes, across relay topologies (tree,
// gossip, flood) and learning rates. The offline solver's Y'(X=1) rest
// point under the reservoir success model is the oracle; the bench
// reports |empirical - oracle| per scenario (strategy.ess_gap.<id>
// gauges, gated by bench_trend gate 7). A small systematic gap is
// expected: the learner also observes the sentinel, which authenticates
// every authentic reveal, so its success estimate is biased low by
// ~1/members — shrinking with cohort size, covered by the tolerance.
//
// Part 2 — protocol curves: DAP vs TESLA++ vs MABS under the same flood
// intensity sweep. DAP and TESLA++ share the announce-then-reveal wire
// format (equal bandwidth); the separation is receiver memory — TESLA++
// buffers every announce record, DAP's reservoir caps at m, and MABS
// (per-batch Merkle signatures) buffers nothing at a per-packet
// bandwidth cost of one auth path plus the amortized root signature.
//
// The whole CSV is bitwise identical at any DAP_THREADS (scenarios are
// deterministic from their specs; rows are emitted in slot order after
// the join). Exits non-zero when a forged message authenticates
// anywhere, an ESS gap exceeds tolerance, or a protocol invariant
// (full authentic auth, MABS zero storage, DAP memory cap) breaks.

#include <algorithm>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/bytes.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "dap/dap.h"
#include "fleet/scenario.h"
#include "obs/registry.h"
#include "obs/tracer.h"
#include "sim/adversary.h"
#include "sim/faults.h"
#include "sim/time.h"
#include "strategy/mabs.h"
#include "strategy/runner.h"
#include "tesla/teslapp.h"

namespace {

using namespace dap;

/// Restores the calling thread's registry/tracer overrides on scope
/// exit (same idiom as fleet_scale: each scenario runs against a local
/// pair so the parallel fan-out stays deterministic).
struct ScopedObsOverride {
  ScopedObsOverride(obs::Registry* registry, obs::Tracer* tracer)
      : prev_registry(obs::Registry::set_thread_override(registry)),
        prev_tracer(obs::Tracer::set_thread_override(tracer)) {}
  ~ScopedObsOverride() {
    obs::Registry::set_thread_override(prev_registry);
    obs::Tracer::set_thread_override(prev_tracer);
  }
  obs::Registry* prev_registry;
  obs::Tracer* prev_tracer;
};

struct EssScenario {
  std::string label;
  double eta = 0.25;
  fleet::ScenarioSpec spec;
};

/// m = 2 buffers against F = 3 forged copies puts the reservoir success
/// at P = 0.5, so the oracle rest point is interior (~0.74) — the
/// learner genuinely has to climb to it.
fleet::ScenarioSpec ess_base(bool smoke) {
  fleet::ScenarioSpec spec;
  spec.name = "game";
  spec.seed = 42;
  spec.buffers = 2;
  spec.forged_fraction = 0.75;
  spec.members_per_cohort = smoke ? 12 : 24;
  spec.intervals = smoke ? 32 : 64;
  spec.interval_us = 200 * sim::kMillisecond;
  spec.hop.latency_us = sim::kMillisecond;
  spec.strategy.adaptive.enabled = true;
  return spec;
}

std::vector<EssScenario> ess_scenarios(bool smoke) {
  std::vector<EssScenario> scenarios;
  const std::vector<double> etas =
      smoke ? std::vector<double>{0.5} : std::vector<double>{0.25, 0.4, 0.6};
  for (const double eta : etas) {
    {
      EssScenario s;
      s.eta = eta;
      s.spec = ess_base(smoke);
      s.spec.kind = fleet::TopologyKind::kTree;
      s.spec.depth = 2;
      s.spec.fanout = 1;
      s.spec.strategy.adaptive.learning_rate = eta;
      s.label = "tree_eta" + common::format_number(eta);
      scenarios.push_back(s);
    }
    {
      EssScenario s;
      s.eta = eta;
      s.spec = ess_base(smoke);
      s.spec.kind = fleet::TopologyKind::kGossip;
      s.spec.relays = 4;
      s.spec.fanin = 2;
      s.spec.strategy.adaptive.learning_rate = eta;
      s.label = "gossip_eta" + common::format_number(eta);
      scenarios.push_back(s);
    }
    {
      EssScenario s;
      s.eta = eta;
      s.spec = ess_base(smoke);
      s.spec.kind = fleet::TopologyKind::kFlood;
      s.spec.receivers = 3;
      s.spec.strategy.adaptive.learning_rate = eta;
      s.label = "flood_eta" + common::format_number(eta);
      scenarios.push_back(s);
    }
  }
  return scenarios;
}

// ---- Part 2: protocol comparison ----------------------------------------

struct ProtoPoint {
  std::uint64_t packets = 0;
  std::uint64_t authenticated = 0;
  std::uint64_t forged_sent = 0;
  std::uint64_t forged_accepted = 0;
  std::uint64_t stored_peak = 0;
  double bits_per_auth = 0.0;
};

constexpr std::uint32_t kProtoIntervals = 24;

/// One DAP receiver and one TESLA++ receiver behind the same announce /
/// flood / reveal script (no medium: direct delivery, perfect link).
/// Forged announces carry random MACs whose reveals never arrive, so
/// they cost memory, not authenticity — the exact DoS surface the
/// reservoir caps.
std::pair<ProtoPoint, ProtoPoint> run_dap_tpp(double forged_fraction) {
  const std::uint32_t total = kProtoIntervals;
  const sim::SimTime interval = 200 * sim::kMillisecond;
  const sim::IntervalSchedule sched(0, interval);
  const std::size_t forged_per_interval =
      forged_fraction > 0.0
          ? sim::FloodingForger::copies_for_fraction(1, forged_fraction)
          : 0;
  common::Rng rng(common::subseed(42, 0x6a3e));

  protocol::DapConfig dap_config;
  dap_config.sender_id = 1;
  dap_config.chain_length = total + 8;
  dap_config.buffers = 4;
  dap_config.schedule = sched;
  tesla::TeslaPpConfig tpp_config;
  tpp_config.sender_id = 2;
  tpp_config.chain_length = total + 8;
  tpp_config.schedule = sched;

  protocol::DapSender dap_sender(dap_config, rng.bytes(16));
  tesla::TeslaPpSender tpp_sender(tpp_config, rng.bytes(16));
  sim::FloodingForger dap_forger(1, dap_config.mac_size, rng.fork(1));
  sim::FloodingForger tpp_forger(2, tpp_config.mac_size, rng.fork(2));

  const sim::FaultyClock clock{sim::LooseClock(0, 2 * sim::kMillisecond)};
  const auto secret = common::bytes_of("proto-curve-secret");
  protocol::DapReceiver dap_rx(dap_config, dap_sender.chain().commitment(),
                               secret, clock.believed(), rng.fork(3));
  tesla::TeslaPpReceiver tpp_rx(tpp_config, tpp_sender.chain().commitment(),
                                secret, clock.believed());

  ProtoPoint dap_point;
  ProtoPoint tpp_point;
  double dap_bits = 0.0;
  double tpp_bits = 0.0;
  for (std::uint32_t i = 1; i <= total; ++i) {
    const sim::SimTime t_mid = sched.interval_start(i) + interval / 2;
    const common::Bytes message =
        common::bytes_of("pkt-" + std::to_string(i));

    ++dap_point.packets;
    ++tpp_point.packets;
    dap_rx.receive(dap_sender.announce(i, message), t_mid);
    tpp_rx.receive(tpp_sender.announce(i, message), t_mid);
    dap_bits += static_cast<double>(dap_config.mac_size) * 8.0;
    tpp_bits += static_cast<double>(tpp_config.mac_size) * 8.0;
    for (std::size_t f = 0; f < forged_per_interval; ++f) {
      ++dap_point.forged_sent;
      ++tpp_point.forged_sent;
      const sim::SimTime t_forge = t_mid + 1 + f;
      dap_rx.receive(dap_forger.forge(i), t_forge);
      tpp_rx.receive(tpp_forger.forge(i), t_forge);
    }
    dap_point.stored_peak = std::max<std::uint64_t>(dap_point.stored_peak,
                                                    dap_rx.stored_records());
    tpp_point.stored_peak = std::max<std::uint64_t>(tpp_point.stored_peak,
                                                    tpp_rx.stored_records());

    const sim::SimTime t_reveal =
        sched.interval_start(i + 1) + 5 * sim::kMillisecond;
    dap_bits += static_cast<double>(dap_config.key_size + message.size()) * 8.0;
    tpp_bits += static_cast<double>(tpp_config.key_size + message.size()) * 8.0;
    if (const auto msg = dap_rx.receive(dap_sender.reveal(i), t_reveal)) {
      ++dap_point.authenticated;
    }
    tpp_point.authenticated += tpp_rx.receive(tpp_sender.reveal(i), t_reveal)
                                   .size();
  }
  // Forged reveals never arrive (the flood's MACs are random), so any
  // forged authentication must show up as an authentic-count overshoot.
  dap_point.forged_accepted =
      dap_point.authenticated > dap_point.packets
          ? dap_point.authenticated - dap_point.packets
          : 0;
  tpp_point.forged_accepted =
      tpp_point.authenticated > tpp_point.packets
          ? tpp_point.authenticated - tpp_point.packets
          : 0;
  dap_point.bits_per_auth =
      dap_point.authenticated > 0
          ? dap_bits / static_cast<double>(dap_point.authenticated)
          : 0.0;
  tpp_point.bits_per_auth =
      tpp_point.authenticated > 0
          ? tpp_bits / static_cast<double>(tpp_point.authenticated)
          : 0.0;
  return {dap_point, tpp_point};
}

ProtoPoint run_mabs_point(double forged_fraction) {
  strategy::MabsConfig config;
  config.seed = 42;
  config.intervals = kProtoIntervals;
  config.packets_per_interval = 8;
  config.signer_height = 6;
  config.forged_per_interval =
      forged_fraction > 0.0
          ? sim::FloodingForger::copies_for_fraction(1, forged_fraction) *
                config.packets_per_interval
          : 0;
  const strategy::MabsReport report = strategy::run_mabs(config);
  ProtoPoint point;
  point.packets = report.packets_sent;
  point.authenticated = report.authenticated;
  point.forged_sent = report.forged_sent;
  point.forged_accepted = report.forged_sent - report.forged_rejected;
  point.stored_peak = report.stored_records;
  point.bits_per_auth =
      report.authenticated > 0
          ? static_cast<double>(report.bits_sent) /
                static_cast<double>(report.authenticated)
          : 0.0;
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t threads = bench::configure_threads(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  bench::banner(
      std::string("game loop — adaptive adversary vs offline ESS, and the "
                  "protocol family curves") +
          (smoke ? " (smoke)" : ""),
      "evolutionary game (paper section V): replicator-driven attacker "
      "converging to the ESS, DAP vs TESLA++ vs MABS trade-off curves",
      "empirical attack share within tolerance of the oracle at every "
      "learning rate and topology; zero forged auths; TESLA++ memory grows "
      "with flood intensity while DAP stays capped and MABS stores nothing");
  std::cout << "[parallel engine: " << threads << " thread(s)]\n";

  const double gap_tolerance = 0.2;
  const auto scenarios = ess_scenarios(smoke);

  // Each scenario runs against a private registry/tracer pair. The
  // locals are NOT merged back: several scenarios would race on the
  // canonical strategy.* gauges (gauge merges are last-writer-wins), so
  // the bench instead republishes the aggregate telemetry below, in
  // slot order — deterministic at any thread count.
  const auto outcomes = [&] {
    const bench::PhaseTimer phase("ess_sweep");
    return common::parallel_map<strategy::StrategyOutcome>(
        scenarios.size(), [&scenarios](std::size_t i) {
          obs::Registry local;
          obs::Tracer local_tracer(std::size_t{1} << 12);
          const ScopedObsOverride scope(&local, &local_tracer);
          return strategy::run_scenario(scenarios[i].spec);
        });
  }();

  auto& reg = obs::Registry::global();
  common::TextTable ess_table({"scenario", "eta", "oracle p", "measured p",
                               "gap", "attacks", "forged ok"});
  common::CsvWriter csv(
      bench::csv_path("game_loop"),
      {"section", "row", "p", "oracle_p", "measured_p", "ess_gap",
       "attacks_launched", "packets", "authenticated", "auth_rate",
       "forged_sent", "forged_accepted", "stored_peak", "bits_per_auth"});

  bool ok = true;
  std::size_t worst = 0;
  std::uint64_t attacks_total = 0;
  std::uint64_t forged_total = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const strategy::StrategyOutcome& out = outcomes[i];
    const EssScenario& scenario = scenarios[i];
    if (out.ess_gap > outcomes[worst].ess_gap) worst = i;
    attacks_total += out.attacks_launched;
    forged_total += out.report.forged_accepted;
    reg.set(reg.gauge("strategy.ess_gap." + scenario.label), out.ess_gap);
    ess_table.add_row({scenario.label, common::format_number(scenario.eta),
                       common::format_number(out.oracle_share),
                       common::format_number(out.attacker_share),
                       common::format_number(out.ess_gap),
                       std::to_string(out.attacks_launched),
                       std::to_string(out.report.forged_accepted)});
    csv.row_text({"ess", scenario.label,
                  common::format_number(scenario.spec.forged_fraction),
                  common::format_number(out.oracle_share),
                  common::format_number(out.attacker_share),
                  common::format_number(out.ess_gap),
                  std::to_string(out.attacks_launched),
                  std::to_string(out.report.member_auths),
                  std::to_string(out.report.member_auths), "",
                  std::to_string(out.report.forged_announces_sent),
                  std::to_string(out.report.forged_accepted),
                  std::to_string(out.report.stored_records_peak), ""});
    if (out.ess_gap > gap_tolerance) {
      std::cerr << "INVARIANT VIOLATION: ess_gap " << out.ess_gap << " > "
                << gap_tolerance << " (" << scenario.label << ")\n";
      ok = false;
    }
    if (out.report.forged_accepted != 0) {
      std::cerr << "INVARIANT VIOLATION: forged message authenticated under "
                   "the adaptive adversary (" << scenario.label << ")\n";
      ok = false;
    }
    if (out.attacks_launched == 0) {
      std::cerr << "INVARIANT VIOLATION: the adaptive adversary never "
                   "attacked (" << scenario.label << ")\n";
      ok = false;
    }
  }
  // Canonical gauges (gate 7 reads these and the per-scenario ones):
  // published from the worst-gap scenario so the gate sees the bound.
  reg.set(reg.gauge("strategy.attacker.p"), outcomes[worst].attacker_share);
  reg.set(reg.gauge("strategy.oracle.p"), outcomes[worst].oracle_share);
  reg.set(reg.gauge("strategy.ess_gap"), outcomes[worst].ess_gap);
  reg.add(reg.counter("strategy.attacks_launched"), attacks_total);
  reg.add(reg.counter("strategy.forged_accepted"), forged_total);

  std::cout << ess_table.render() << '\n';

  // ---- Protocol family curves -------------------------------------------
  common::TextTable proto_table({"protocol", "p", "auth rate", "forged ok",
                                 "stored peak", "bits/auth"});
  const std::vector<double> fractions =
      smoke ? std::vector<double>{0.0, 0.9}
            : std::vector<double>{0.0, 0.25, 0.5, 0.75, 0.9};
  {
    const bench::PhaseTimer phase("protocol_curves");
    for (const double p : fractions) {
      const std::size_t copies =
          p > 0.0 ? sim::FloodingForger::copies_for_fraction(1, p) : 0;
      const auto [dap_point, tpp_point] = run_dap_tpp(p);
      const ProtoPoint mabs_point = run_mabs_point(p);
      const struct {
        const char* name;
        const ProtoPoint& point;
      } rows[] = {{"dap", dap_point},
                  {"teslapp", tpp_point},
                  {"mabs", mabs_point}};
      for (const auto& row : rows) {
        const double auth_rate =
            row.point.packets > 0
                ? static_cast<double>(row.point.authenticated) /
                      static_cast<double>(row.point.packets)
                : 0.0;
        proto_table.add_row({row.name, common::format_number(p),
                             common::format_number(auth_rate),
                             std::to_string(row.point.forged_accepted),
                             std::to_string(row.point.stored_peak),
                             common::format_number(row.point.bits_per_auth)});
        csv.row_text({"protocol", row.name, common::format_number(p), "", "",
                      "", "", std::to_string(row.point.packets),
                      std::to_string(row.point.authenticated),
                      common::format_number(auth_rate),
                      std::to_string(row.point.forged_sent),
                      std::to_string(row.point.forged_accepted),
                      std::to_string(row.point.stored_peak),
                      common::format_number(row.point.bits_per_auth)});
        if (row.point.forged_accepted != 0) {
          std::cerr << "INVARIANT VIOLATION: forged accepted by " << row.name
                    << " at p=" << p << "\n";
          ok = false;
        }
        // TESLA++ and MABS authenticate every authentic packet at any
        // flood intensity (they buffer or verify immediately). DAP only
        // once the offer load fits its reservoir; above that the auth
        // rate decays toward m/(F+1) — the paper's attack-success curve,
        // bounded away from zero but below one.
        const bool full_auth_expected =
            std::strcmp(row.name, "dap") != 0 || copies + 1 <= 4;
        if (full_auth_expected &&
            row.point.authenticated != row.point.packets) {
          std::cerr << "INVARIANT VIOLATION: " << row.name
                    << " authenticated " << row.point.authenticated << "/"
                    << row.point.packets << " authentic packets at p=" << p
                    << "\n";
          ok = false;
        }
        if (!full_auth_expected &&
            (row.point.authenticated == 0 ||
             row.point.authenticated >= row.point.packets)) {
          std::cerr << "INVARIANT VIOLATION: DAP auth count "
                    << row.point.authenticated << "/" << row.point.packets
                    << " outside the reservoir-decay regime at p=" << p
                    << "\n";
          ok = false;
        }
      }
      // The separation the family exists for: TESLA++ buffers the whole
      // flood, DAP's reservoir stays O(m) — the current interval's cap
      // plus at most one undisclosed interval's carry — and MABS stores
      // nothing. The TESLA++ > DAP ordering only bites once the flood
      // actually exceeds DAP's bound (copies + 1 > 2m); below that the
      // two coincide by construction.
      if (dap_point.stored_peak > 2 * 4 /* 2 * buffers */) {
        std::cerr << "INVARIANT VIOLATION: DAP stored " <<
            dap_point.stored_peak << " records > 2m bound at p=" << p
                  << "\n";
        ok = false;
      }
      if (mabs_point.stored_peak != 0) {
        std::cerr << "INVARIANT VIOLATION: MABS stored "
                  << mabs_point.stored_peak << " records (must be 0)\n";
        ok = false;
      }
      if (copies + 1 > 2 * 4 &&
          tpp_point.stored_peak <= dap_point.stored_peak) {
        std::cerr << "INVARIANT VIOLATION: TESLA++ stored peak "
                  << tpp_point.stored_peak
                  << " not above DAP's cap under flood (p=" << p << ")\n";
        ok = false;
      }
    }
  }

  std::cout << proto_table.render();
  std::cout << "\nThe attacker's learned share tracks the offline ESS "
               "prediction at every\nlearning rate (gap gated at "
            << gap_tolerance << "), while no forged message ever\n"
               "authenticates. TESLA++ memory grows with flood intensity; "
               "DAP stays at its\nreservoir cap; MABS trades bandwidth for "
               "zero buffering.\n";
  bench::set_run_scenario(smoke ? "game_loop:smoke" : "game_loop:full");
  bench::footer("game_loop");
  return ok ? 0 : 1;
}
