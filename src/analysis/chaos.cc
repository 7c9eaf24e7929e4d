#include "analysis/chaos.h"

#include <algorithm>
#include <memory>
#include <string_view>

#include "common/bytes.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "crypto/mac.h"
#include "crypto/prf.h"
#include "dap/dap.h"
#include "sim/adversary.h"
#include "sim/channel.h"
#include "sim/event_queue.h"
#include "sim/faults.h"
#include "sim/medium.h"
#include "strategy/runner.h"
#include "tesla/teslapp.h"
#include "tesla/timesync.h"

namespace dap::analysis {

namespace {

constexpr wire::NodeId kDapSenderId = 1;
constexpr wire::NodeId kTppSenderId = 2;
constexpr sim::SimTime kLinkLatency = sim::kMillisecond;
constexpr sim::SimTime kMaxOffset = 2 * sim::kMillisecond;
/// Fast oscillators (even receivers) drift hard enough to break the
/// safety check mid-window; slow ones (odd receivers) stay inside the
/// drift allowance, which must keep late forgeries out regardless.
constexpr double kFastDriftPpm = 50000.0;
constexpr double kSlowDriftPpm = 2000.0;
/// Every forged payload carries this tag so acceptance is detectable.
constexpr std::string_view kForgedTag = "FORGED";

/// Per-receiver, per-protocol acceptance tracking.
struct Track {
  std::uint64_t authenticated = 0;
  std::uint64_t forged_accepted = 0;
  std::uint32_t first_tail_auth = 0;  // first authentic interval > window
};

void note_authenticated(Track& track, const tesla::AuthenticatedMessage& msg,
                        std::uint32_t fault_until) {
  const std::string_view payload(
      reinterpret_cast<const char*>(msg.message.data()),
      std::min(msg.message.size(), kForgedTag.size()));
  if (payload == kForgedTag) {
    ++track.forged_accepted;
    return;
  }
  ++track.authenticated;
  if (msg.interval > fault_until && track.first_tail_auth == 0) {
    track.first_tail_auth = msg.interval;
  }
}

ChaosReceiverReport make_report(const Track& track,
                                const tesla::ResyncStats& resync,
                                std::uint64_t admissions_shed,
                                std::uint64_t crash_restarts,
                                std::uint32_t fault_until) {
  ChaosReceiverReport report;
  report.authenticated = track.authenticated;
  report.forged_accepted = track.forged_accepted;
  report.resync_episodes = resync.desync_episodes;
  report.resync_attempts = resync.attempts;
  report.resync_successes = resync.successes;
  report.budget_exhausted = resync.budget_exhausted;
  report.admissions_shed = admissions_shed;
  report.crash_restarts = crash_restarts;
  report.reconverged = track.first_tail_auth != 0;
  if (report.reconverged) {
    report.reconverge_intervals = track.first_tail_auth - fault_until;
  }
  return report;
}

}  // namespace

ChaosReport run_chaos_soak(const ChaosConfig& config) {
  const std::uint32_t total = config.fault_until + config.reconverge_within;
  sim::EventQueue queue;
  common::Rng rng(config.seed);
  sim::Medium medium(queue, rng);
  const sim::IntervalSchedule sched(0, config.interval);

  const auto window = std::make_shared<sim::FaultSchedule>();
  window->add_window(sched.interval_start(config.fault_from),
                     sched.interval_start(config.fault_until));

  tesla::ResyncConfig resync;
  resync.enabled = true;
  resync.desync_threshold = 4;
  resync.retry_budget = 6;
  resync.backoff_initial = config.interval / 4;
  resync.backoff_max = 2 * config.interval;
  resync.drift_allowance_ppm = config.mix.clock_drift ? kSlowDriftPpm : 0.0;

  protocol::DapConfig dap_config;
  dap_config.sender_id = kDapSenderId;
  dap_config.chain_length = config.chain_length;
  dap_config.buffers = 4;
  dap_config.schedule = sched;
  dap_config.record_pool_limit = 64;
  dap_config.resync = resync;

  tesla::TeslaPpConfig tpp_config;
  tpp_config.sender_id = kTppSenderId;
  tpp_config.chain_length = config.chain_length;
  tpp_config.schedule = sched;
  tpp_config.record_pool_limit = 256;
  tpp_config.resync = resync;

  protocol::DapSender dap_sender(dap_config, rng.bytes(16));
  tesla::TeslaPpSender tpp_sender(tpp_config, rng.bytes(16));

  // Adversaries: memory-DoS flooders, a key guesser, and (scheduled
  // inline below) the late-key forger that replays disclosed keys.
  sim::FloodingForger dap_forger(kDapSenderId, dap_config.mac_size,
                                 rng.fork(101));
  sim::FloodingForger tpp_forger(kTppSenderId, tpp_config.mac_size,
                                 rng.fork(102));
  sim::KeyGuessForger key_guesser(kDapSenderId, dap_config.key_size,
                                  rng.fork(103));

  // --- Receiver population: every node runs both protocol stacks behind
  // one faulty link and one (possibly faulty) oscillator.
  std::vector<sim::FaultyClock> clocks;
  std::vector<std::unique_ptr<protocol::DapReceiver>> dap_rx;
  std::vector<std::unique_ptr<tesla::TeslaPpReceiver>> tpp_rx;
  std::vector<Track> dap_track(config.receivers);
  std::vector<Track> tpp_track(config.receivers);
  // One timesync client per stack (a handshake has in-flight state).
  std::vector<tesla::TimeSyncClient> dap_sync;
  std::vector<tesla::TimeSyncClient> tpp_sync;
  std::vector<tesla::TimeSyncResponder> responders;

  const bool responder_down_in_window =
      config.mix.blackout || config.mix.resync_outage;

  for (std::size_t r = 0; r < config.receivers; ++r) {
    sim::FaultyClock clock(sim::LooseClock(0, kMaxOffset));
    if (config.mix.clock_drift) {
      clock.add(sim::ClockDriftFault{
          r % 2 == 0 ? kFastDriftPpm : -kSlowDriftPpm,
          sched.interval_start(config.fault_from),
          sched.interval_start(config.fault_until)});
    }
    if (config.mix.clock_step) {
      clock.add(sim::ClockStepFault{
          static_cast<std::int64_t>(config.interval),
          sched.interval_start(config.fault_from)});
    }
    clocks.push_back(clock);

    const auto secret = common::bytes_of("node-secret-" + std::to_string(r));
    dap_rx.push_back(std::make_unique<protocol::DapReceiver>(
        dap_config, dap_sender.chain().commitment(), secret,
        clock.believed(), rng.fork(200 + r)));
    tpp_rx.push_back(std::make_unique<tesla::TeslaPpReceiver>(
        tpp_config, tpp_sender.chain().commitment(), secret,
        clock.believed()));

    const auto pairwise = common::bytes_of("pairwise-" + std::to_string(r));
    dap_sync.emplace_back(pairwise, config.seed * 1000 + r);
    tpp_sync.emplace_back(pairwise, config.seed * 2000 + r);
    responders.emplace_back(pairwise);
  }

  // Resync transport: a real handshake over the same (faulty) path, so a
  // blackout or responder outage genuinely fails the attempt.
  const auto make_handler = [&](std::vector<tesla::TimeSyncClient>& clients,
                                std::size_t r) {
    return [&, r](sim::SimTime local_now)
               -> std::optional<tesla::SyncCalibration> {
      if (responder_down_in_window && window->active(queue.now())) {
        return std::nullopt;
      }
      const auto request = clients[r].begin(local_now);
      const auto response =
          responders[r].respond(request, queue.now() + kLinkLatency);
      const sim::SimTime arrival =
          clocks[r].local_time(queue.now() + 2 * kLinkLatency);
      return clients[r].complete(response, std::max(arrival, local_now));
    };
  };

  for (std::size_t r = 0; r < config.receivers; ++r) {
    dap_rx[r]->set_resync_handler(make_handler(dap_sync, r));
    tpp_rx[r]->set_resync_handler(make_handler(tpp_sync, r));

    // Link stack: blackout closest to the wire, duplication outermost.
    std::unique_ptr<sim::Channel> channel =
        std::make_unique<sim::PerfectChannel>();
    if (config.mix.blackout) {
      channel = std::make_unique<sim::BlackoutChannel>(std::move(channel),
                                                       window, queue);
    }
    if (config.mix.duplication) {
      channel = std::make_unique<sim::DuplicateChannel>(std::move(channel),
                                                        0.5, window, &queue);
    }
    std::unique_ptr<sim::LatencyModel> latency;
    if (config.mix.jitter) {
      latency = std::make_unique<sim::JitterLink>(
          kLinkLatency, 3 * config.interval, window, &queue);
    } else {
      latency = std::make_unique<sim::FixedLatency>(kLinkLatency);
    }

    medium.attach(
        [&, r](const wire::Packet& packet, sim::SimTime now) {
          const sim::SimTime local = clocks[r].local_time(now);
          if (const auto* a = std::get_if<wire::MacAnnounce>(&packet)) {
            if (a->sender == kDapSenderId) {
              dap_rx[r]->receive(*a, local);
            } else {
              tpp_rx[r]->receive(*a, local);
            }
          } else if (const auto* m =
                         std::get_if<wire::MessageReveal>(&packet)) {
            if (m->sender == kDapSenderId) {
              if (const auto msg = dap_rx[r]->receive(*m, local)) {
                note_authenticated(dap_track[r], *msg, config.fault_until);
              }
            } else {
              for (const auto& msg : tpp_rx[r]->receive(*m, local)) {
                note_authenticated(tpp_track[r], msg, config.fault_until);
              }
            }
          }
        },
        std::move(channel), std::move(latency));
  }

  // --- Traffic script.
  const common::Bytes forged_msg = common::bytes_of("FORGED-late-key");
  for (std::uint32_t i = 1; i <= total; ++i) {
    const sim::SimTime t0 = sched.interval_start(i);
    // Authentic announces mid-interval (so clock faults genuinely push
    // them across the disclosure boundary), plus the flooding load.
    queue.schedule_at(t0 + config.interval / 2, [&, i] {
      medium.broadcast(wire::Packet{
          dap_sender.announce(i, common::bytes_of("dap-" + std::to_string(i)))});
      medium.broadcast(wire::Packet{
          tpp_sender.announce(i, common::bytes_of("tpp-" + std::to_string(i)))});
      dap_forger.flood(medium, i, config.forged_per_interval);
      for (std::size_t f = 0; f < config.forged_per_interval; ++f) {
        medium.broadcast(wire::Packet{tpp_forger.forge(i)});
      }
      medium.broadcast(
          wire::Packet{key_guesser.forge_reveal(i, forged_msg)});
    });
    // Authentic reveals early in the next interval.
    queue.schedule_at(sched.interval_start(i + 1) + 5 * kLinkLatency, [&, i] {
      medium.broadcast(wire::Packet{dap_sender.reveal(i)});
      medium.broadcast(wire::Packet{tpp_sender.reveal(i)});
    });
    // Late-key forgery: once K_i is public the adversary computes the
    // real MAC key, so only the loose-time safety check can reject the
    // pair. Any acceptance is a harness failure.
    queue.schedule_at(sched.interval_start(i + 1) + 8 * kLinkLatency, [&, i] {
      for (const auto& [sender, chain] :
           {std::pair<wire::NodeId, const crypto::KeyChain*>{
                kDapSenderId, &dap_sender.chain()},
            {kTppSenderId, &tpp_sender.chain()}}) {
        const common::Bytes& key = chain->key(i);
        wire::MacAnnounce announce;
        announce.sender = sender;
        announce.interval = i;
        announce.mac = crypto::compute_mac(
            crypto::prf_bytes(crypto::PrfDomain::kMacKey, key), forged_msg,
            sender == kDapSenderId ? dap_config.mac_size
                                   : tpp_config.mac_size);
        medium.broadcast(wire::Packet{announce});
        wire::MessageReveal reveal;
        reveal.sender = sender;
        reveal.interval = i;
        reveal.message = forged_msg;
        reveal.key = common::InlineBytes<32>(key);
        medium.broadcast(wire::Packet{reveal});
      }
    });
  }

  // Idle ticks drive retry/backoff even when a blackout starves the
  // receive paths.
  const sim::SimTime horizon = sched.interval_start(total + 1);
  for (sim::SimTime t = config.interval / 4; t < horizon;
       t += config.interval / 4) {
    queue.schedule_at(t, [&] {
      for (std::size_t r = 0; r < config.receivers; ++r) {
        const sim::SimTime local = clocks[r].local_time(queue.now());
        dap_rx[r]->tick(local);
        tpp_rx[r]->tick(local);
      }
    });
  }

  if (config.mix.crash_restart) {
    for (const std::uint32_t at : {config.fault_from + 2u,
                                   config.fault_from + 8u}) {
      // After the interval's announce, before its reveal: the crash
      // provably drops in-flight rounds.
      queue.schedule_at(
          sched.interval_start(at) + 3 * config.interval / 4, [&] {
            for (std::size_t r = 0; r < config.receivers; ++r) {
              const sim::SimTime local = clocks[r].local_time(queue.now());
              dap_rx[r]->crash_restart(local);
              tpp_rx[r]->crash_restart(local);
            }
          });
    }
  }

  queue.run_until(horizon);

  ChaosReport report;
  report.total_intervals = total;
  report.duplicated_frames = medium.duplicated_frames();
  report.all_reconverged = true;
  for (std::size_t r = 0; r < config.receivers; ++r) {
    report.dap.push_back(make_report(
        dap_track[r], dap_rx[r]->resync_stats(),
        dap_rx[r]->stats().admissions_shed, dap_rx[r]->stats().crash_restarts,
        config.fault_until));
    report.teslapp.push_back(make_report(
        tpp_track[r], tpp_rx[r]->resync_stats(),
        tpp_rx[r]->stats().admissions_shed, tpp_rx[r]->stats().crash_restarts,
        config.fault_until));
    report.forged_accepted_total += report.dap.back().forged_accepted +
                                    report.teslapp.back().forged_accepted;
    report.all_reconverged = report.all_reconverged &&
                             report.dap.back().reconverged &&
                             report.teslapp.back().reconverged;
  }
  return report;
}

std::vector<ChaosReport> run_chaos_soaks(
    const std::vector<ChaosConfig>& configs) {
  // Each soak is deterministic from its config alone (it seeds its own
  // RNGs), so the fan-out needs no plan pass.
  return common::parallel_map<ChaosReport>(
      configs.size(),
      [&configs](std::size_t i) { return run_chaos_soak(configs[i]); });
}

FleetChaosResult run_fleet_chaos_case(const FleetChaosCase& chaos_case,
                                      obs::Snapshotter* snapshotter) {
  FleetChaosResult result;
  result.label = chaos_case.label;
  if (chaos_case.spec.strategy.engaged()) {
    // Strategy extensions need their coordinators wired around the sim;
    // the runner owns that and reports the same FleetReport.
    result.report = strategy::run_scenario(chaos_case.spec, snapshotter).report;
  } else {
    fleet::FleetSim sim(chaos_case.spec);
    sim.set_snapshotter(snapshotter);
    result.report = sim.run();
  }
  const fleet::FleetReport& report = result.report;
  result.zero_forged = report.zero_forged();
  result.memory_bounded = report.guard_peak_entries <= report.guard_capacity;
  // Liveness: every depth back to full sentinel authentication within
  // the documented bound. An empty vector means the spec scheduled no
  // faults — nothing to reconverge from.
  result.reconverged = true;
  for (std::size_t d = 1; d < report.reconverge_intervals.size(); ++d) {
    const std::uint32_t took = report.reconverge_intervals[d];
    if (took == fleet::kNeverReconverged ||
        took > chaos_case.reconverge_within) {
      result.reconverged = false;
    }
  }
  return result;
}

namespace {

/// Chain 0 -> 1 -> 2 for the single-relay fault cases; the scenario ids
/// stay distinct because each case uses a different forged fraction.
fleet::ScenarioSpec fleet_chaos_chain(bool smoke) {
  fleet::ScenarioSpec spec;
  spec.name = "chaos";
  spec.seed = 7;
  spec.kind = fleet::TopologyKind::kTree;
  spec.depth = 2;
  spec.fanout = 1;
  spec.members_per_cohort = smoke ? 5 : 40;
  spec.buffers = 6;
  spec.intervals = 10;
  spec.interval_us = 200 * sim::kMillisecond;
  spec.hop.latency_us = sim::kMillisecond;
  return spec;
}

}  // namespace

std::vector<FleetChaosCase> standard_fleet_chaos_cases(bool smoke) {
  std::vector<FleetChaosCase> cases;

  // Relay crash with a skewed reboot: downstream recovers on traffic
  // alone; the crashed relay's cohort needs the full desync-detect ->
  // handshake -> recalibrate cycle (4 intervals covers it).
  {
    FleetChaosCase c;
    c.label = "crash-reboot";
    c.spec = fleet_chaos_chain(smoke);
    c.spec.faults.relay_crashes.push_back(
        {1, 2, 2, 150 * sim::kMillisecond});
    c.reconverge_within = 4;
    cases.push_back(c);
  }

  // Healing partition: nothing desyncs, so reconvergence is immediate
  // once the edge is back.
  {
    FleetChaosCase c;
    c.label = "partition-heal";
    c.spec = fleet_chaos_chain(smoke);
    c.spec.forged_fraction = 0.25;
    c.spec.faults.partitions.push_back({0, 1, 2, 3});
    c.reconverge_within = 1;
    cases.push_back(c);
  }

  // Degraded relay under a hard flood: the tight budget sheds the
  // forged burst, but authentic announces lead each burst and reveals
  // ride the refilled bucket, so the control stream stays live. Buffers
  // cover the full offer load (1 authentic + 9 forged) so the sentinel
  // reservoir never evicts the authentic copy.
  {
    FleetChaosCase c;
    c.label = "degraded-flood";
    c.spec = fleet_chaos_chain(smoke);
    c.spec.forged_fraction = 0.9;
    c.spec.buffers = 12;
    c.spec.guard.burst_bits = 512.0;
    c.spec.faults.degraded.push_back({1, 0.005});  // 5 kbit/s
    c.reconverge_within = 1;
    cases.push_back(c);
  }

  // Guard saturation: a 16-slot tag store under the same flood across a
  // branching tree, plus a healing partition. Peak relay memory must
  // hold at <= capacity while the overflow surfaces as evictions.
  {
    FleetChaosCase c;
    c.label = "guard-saturation";
    c.spec = fleet_chaos_chain(smoke);
    c.spec.fanout = 2;
    c.spec.members_per_cohort = smoke ? 10 : 60;
    c.spec.forged_fraction = 0.9;
    c.spec.buffers = 12;
    c.spec.guard.capacity = 16;
    c.spec.faults.partitions.push_back({0, 1, 2, 3});
    c.reconverge_within = 1;
    cases.push_back(c);
  }

  // Everything at once: crash + reboot skew, healing partition on the
  // other branch, degraded budget below it, moderate flood.
  {
    FleetChaosCase c;
    c.label = "combined";
    c.spec = fleet_chaos_chain(smoke);
    c.spec.fanout = 2;
    c.spec.members_per_cohort = smoke ? 25 : 50;
    c.spec.forged_fraction = 0.6;
    c.spec.guard.capacity = 64;
    c.spec.guard.burst_bits = 8192.0;
    c.spec.faults.relay_crashes.push_back(
        {1, 2, 1, 150 * sim::kMillisecond});
    c.spec.faults.partitions.push_back({0, 2, 3, 4});
    c.spec.faults.degraded.push_back({2, 0.05});
    c.reconverge_within = 4;
    cases.push_back(c);
  }

  return cases;
}

std::vector<FleetChaosCase> strategy_fleet_chaos_cases(bool smoke) {
  std::vector<FleetChaosCase> cases;

  // Adaptive replicator attacker on a small-reservoir cohort: m = 2 and
  // F = 3 forged copies put the reservoir success at P = 0.5, so the
  // oracle's rest point is interior (~0.74) and the learner genuinely
  // has to track it while the fleet rejects every forged copy.
  {
    FleetChaosCase c;
    c.label = "adaptive-replicator";
    c.spec = fleet_chaos_chain(smoke);
    c.spec.name = "strategy";
    c.spec.buffers = 2;
    c.spec.intervals = smoke ? 24 : 48;
    c.spec.forged_fraction = 0.75;
    c.spec.strategy.adaptive.enabled = true;
    cases.push_back(c);
  }

  // Sybil cohort: coordinated identities reveal one self-consistent
  // forged chain with staggered timing and distinct payloads, stressing
  // dedup and the tag store at every hop. The chain's anchor is wrong,
  // so weak authentication must reject all of it.
  {
    FleetChaosCase c;
    c.label = "sybil-cohort";
    c.spec = fleet_chaos_chain(smoke);
    c.spec.name = "strategy";
    c.spec.strategy.sybil.enabled = true;
    c.spec.strategy.sybil.cohort = smoke ? 3 : 8;
    cases.push_back(c);
  }

  // Cooperative verification under the Sybil flood: drained cohorts
  // gossip invalid verdicts root-ward to leaf-ward, so followers skip
  // the redundant walks the forged chain forces.
  {
    FleetChaosCase c;
    c.label = "sybil-coop";
    c.spec = fleet_chaos_chain(smoke);
    c.spec.name = "strategy";
    c.spec.strategy.sybil.enabled = true;
    c.spec.strategy.sybil.cohort = smoke ? 3 : 8;
    c.spec.strategy.coop.enabled = true;
    cases.push_back(c);
  }

  // Poisoned gossip: the first-drained cohort lies about its *valid*
  // walks. Skips only ever downgrade weak verdicts to rejections and
  // the sentinel verifies everything itself, so this is at worst a
  // liveness attack — audits catch it, and forged stays zero.
  {
    FleetChaosCase c;
    c.label = "coop-poisoned";
    c.spec = fleet_chaos_chain(smoke);
    c.spec.name = "strategy";
    c.spec.forged_fraction = 0.5;
    c.spec.strategy.coop.enabled = true;
    c.spec.strategy.coop.audit_fraction = 0.5;
    c.spec.strategy.coop.poisoned = true;
    cases.push_back(c);
  }

  return cases;
}

std::vector<std::pair<std::string, ChaosFaultMix>> standard_fault_mixes() {
  std::vector<std::pair<std::string, ChaosFaultMix>> mixes;
  mixes.emplace_back("jitter", ChaosFaultMix{.jitter = true});
  mixes.emplace_back("duplication", ChaosFaultMix{.duplication = true});
  mixes.emplace_back("blackout", ChaosFaultMix{.blackout = true});
  mixes.emplace_back("drift", ChaosFaultMix{.clock_drift = true});
  mixes.emplace_back("step", ChaosFaultMix{.clock_step = true,
                                           .resync_outage = true});
  mixes.emplace_back("crash", ChaosFaultMix{.crash_restart = true});
  mixes.emplace_back("combined",
                     ChaosFaultMix{.jitter = true, .duplication = true,
                                   .clock_drift = true,
                                   .crash_restart = true});
  return mixes;
}

}  // namespace dap::analysis
