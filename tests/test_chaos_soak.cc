// Chaos soak and receiver-resilience tests: scripted fault schedules
// (jitter, duplication, blackout, clock drift/step, crash/restart)
// through concurrent DAP and TESLA++ sessions, plus focused tests for
// the desync -> resync -> recover path and the graceful-degradation
// policy. The soak invariants: no forged message EVER authenticates,
// and every receiver reconverges within the bounded tail.
//
// DAP_CHAOS_SOAK_ITERS=<n> (env) widens the default quick soak to the
// full horizon with n seeds per mix — the CI sanitizer stage sets it.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "analysis/chaos.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "dap/dap.h"
#include "obs/registry.h"
#include "sim/clock_model.h"
#include "sim/faults.h"
#include "tesla/teslapp.h"
#include "tesla/timesync.h"

namespace dap {
namespace {

using common::Bytes;
using common::bytes_of;
using common::Rng;

analysis::ChaosConfig quick_config(std::uint64_t seed,
                                   const analysis::ChaosFaultMix& mix) {
  analysis::ChaosConfig config;
  config.seed = seed;
  config.mix = mix;
  config.receivers = 2;
  config.fault_from = 6;
  config.fault_until = 14;
  config.reconverge_within = 8;
  return config;
}

// ------------------------------------------------------------- the soak

TEST(ChaosSoak, EveryFaultMixHoldsBothInvariants) {
  // Default: one quick seeded pass per mix. DAP_CHAOS_SOAK_ITERS widens
  // to the full horizon with that many seeds per mix.
  int iters = 0;
  if (const char* env = std::getenv("DAP_CHAOS_SOAK_ITERS")) {
    iters = std::atoi(env);
  }
  for (const auto& [name, mix] : analysis::standard_fault_mixes()) {
    if (iters > 0) {
      for (int s = 0; s < iters; ++s) {
        analysis::ChaosConfig config;
        config.seed = 100 + static_cast<std::uint64_t>(s);
        config.mix = mix;
        const auto report = analysis::run_chaos_soak(config);
        EXPECT_EQ(report.forged_accepted_total, 0u)
            << "forged authentication in mix " << name << " seed "
            << config.seed;
        EXPECT_TRUE(report.all_reconverged)
            << "receiver stuck after faults cleared in mix " << name
            << " seed " << config.seed;
      }
    } else {
      const auto report = analysis::run_chaos_soak(quick_config(7, mix));
      EXPECT_EQ(report.forged_accepted_total, 0u)
          << "forged authentication in mix " << name;
      EXPECT_TRUE(report.all_reconverged)
          << "receiver stuck after faults cleared in mix " << name;
    }
  }
}

TEST(ChaosSoak, DriftDeclaresEpisodesAndReconverges) {
  // Full horizon: the fast oscillators need the whole window to run the
  // safety check out of slack.
  analysis::ChaosConfig config;
  config.seed = 7;
  config.mix.clock_drift = true;
  const auto report = analysis::run_chaos_soak(config);
  ASSERT_EQ(report.dap.size(), config.receivers);
  std::uint64_t episodes = 0;
  std::uint64_t successes = 0;
  for (const auto& r : report.dap) {
    episodes += r.resync_episodes;
    successes += r.resync_successes;
  }
  EXPECT_GT(episodes, 0u);
  EXPECT_GT(successes, 0u);
  EXPECT_EQ(report.forged_accepted_total, 0u);
  EXPECT_TRUE(report.all_reconverged);
  for (const auto& r : report.dap) {
    EXPECT_LE(r.reconverge_intervals, config.reconverge_within);
  }
}

TEST(ChaosSoak, StepWithResyncOutageExhaustsRetryBudget) {
  analysis::ChaosConfig config;
  config.seed = 11;
  config.mix.clock_step = true;
  config.mix.resync_outage = true;
  const auto report = analysis::run_chaos_soak(config);
  std::uint64_t exhausted = 0;
  for (const auto& r : report.dap) exhausted += r.budget_exhausted;
  for (const auto& r : report.teslapp) exhausted += r.budget_exhausted;
  // Attempts against the unreachable responder burn whole budgets, yet
  // the post-window episode still recovers every receiver.
  EXPECT_GT(exhausted, 0u);
  EXPECT_EQ(report.forged_accepted_total, 0u);
  EXPECT_TRUE(report.all_reconverged);
}

TEST(ChaosSoak, CrashRestartsAreCountedAndSurvived) {
  analysis::ChaosConfig config;
  config.seed = 23;
  config.mix.crash_restart = true;
  const auto report = analysis::run_chaos_soak(config);
  for (const auto& r : report.dap) EXPECT_EQ(r.crash_restarts, 2u);
  for (const auto& r : report.teslapp) EXPECT_EQ(r.crash_restarts, 2u);
  EXPECT_EQ(report.forged_accepted_total, 0u);
  EXPECT_TRUE(report.all_reconverged);
}

TEST(ChaosSoak, ResyncTelemetryVisibleInRegistryExport) {
  // The drift soak above may or may not have run first; run one here so
  // the process-global registry provably carries the instruments.
  analysis::ChaosConfig config;
  config.seed = 42;
  config.mix.clock_drift = true;
  (void)analysis::run_chaos_soak(config);

  auto& reg = obs::Registry::global();
  for (const std::string prefix : {"dap", "teslapp"}) {
    const auto* episodes = reg.find_counter(prefix + ".desync_episodes");
    ASSERT_NE(episodes, nullptr) << prefix;
    const auto* attempts = reg.find_counter(prefix + ".resync_attempts");
    ASSERT_NE(attempts, nullptr) << prefix;
    const auto* successes = reg.find_counter(prefix + ".resync_successes");
    ASSERT_NE(successes, nullptr) << prefix;
    EXPECT_GE(*attempts, *successes) << prefix;
  }
  // Fast-drift receivers desynced and recovered, so the latency
  // histogram has samples and sane percentiles.
  const auto* latency = reg.find_histogram("dap.resync_latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_GT(latency->count(), 0u);
  EXPECT_GE(latency->p99(), latency->p50());
}

// ------------------------------------------------- fleet-level chaos

TEST(FleetChaos, EveryStandardCaseHoldsAllThreeInvariants) {
  // Relay crash/reboot-skew, healing partitions, degraded budgets, and
  // guard saturation across multi-hop topologies: zero forged auths,
  // relay memory bounded by the guard capacity, and every depth back to
  // full sentinel authentication within the case's documented bound.
  const auto cases = analysis::standard_fleet_chaos_cases(/*smoke=*/true);
  ASSERT_GE(cases.size(), 5u);
  const auto results = common::parallel_map<analysis::FleetChaosResult>(
      cases.size(),
      [&](std::size_t i) { return analysis::run_fleet_chaos_case(cases[i]); });
  ASSERT_EQ(results.size(), cases.size());
  for (const auto& result : results) {
    EXPECT_TRUE(result.zero_forged)
        << result.label << ": forged message authenticated";
    EXPECT_TRUE(result.memory_bounded)
        << result.label << ": guard peak " << result.report.guard_peak_entries
        << " exceeds capacity " << result.report.guard_capacity;
    EXPECT_TRUE(result.reconverged) << result.label << ": a depth missed its "
                                    << "reconvergence bound";
  }
}

TEST(FleetChaos, CasesExerciseEveryFaultKindAndStressTheGuard) {
  // The standard family must actually inject what it claims: at least
  // one crash cycle, one healed partition, budget shedding, and tag
  // evictions somewhere across the cases.
  const auto cases = analysis::standard_fleet_chaos_cases(/*smoke=*/true);
  const auto results = common::parallel_map<analysis::FleetChaosResult>(
      cases.size(),
      [&](std::size_t i) { return analysis::run_fleet_chaos_case(cases[i]); });
  std::uint64_t restarts = 0;
  std::uint64_t shed = 0;
  std::uint64_t evicted = 0;
  std::uint64_t dropped_down = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& result = results[i];
    restarts += result.report.relay_restarts;
    shed += result.report.guard_shed;
    evicted += result.report.guard_evicted;
    dropped_down += result.report.dropped_while_down;
    // Crashes and partitions clear at a positive interval; a plan made
    // only of degraded budgets never clears (horizon stays 0).
    const auto& faults = cases[i].spec.faults;
    if (!faults.relay_crashes.empty() || !faults.partitions.empty()) {
      EXPECT_GT(result.report.fault_clear_interval, 0u) << result.label;
    }
    EXPECT_FALSE(result.report.reconverge_intervals.empty()) << result.label;
  }
  EXPECT_GT(restarts, 0u);
  EXPECT_GT(dropped_down, 0u);
  EXPECT_GT(shed, 0u);
  EXPECT_GT(evicted, 0u);
}

// --------------------------------------- desync -> resync -> recover

TEST(DapResilience, DriftingClockDesyncsThenResyncsThenAccepts) {
  // A fast oscillator (20% skew, frozen after 500 ms) pushes authentic
  // announces across the believed safety bound: the receiver must flag
  // the desync, re-run the timesync handshake, and accept again.
  protocol::DapConfig config;
  config.chain_length = 16;
  config.schedule = sim::IntervalSchedule(0, 100 * sim::kMillisecond);
  config.resync.enabled = true;
  config.resync.desync_threshold = 3;
  config.resync.retry_budget = 4;
  config.resync.backoff_initial = sim::kMillisecond;
  protocol::DapSender sender(config, bytes_of("seed"));
  protocol::DapReceiver receiver(config, sender.chain().commitment(),
                                 bytes_of("local"),
                                 sim::LooseClock(0, 2 * sim::kMillisecond),
                                 Rng(5));

  sim::FaultyClock oscillator(sim::LooseClock(0, 2 * sim::kMillisecond));
  oscillator.add(sim::ClockDriftFault{200000.0, 0, 500 * sim::kMillisecond});

  sim::SimTime true_now = 0;

  // Announces mid-interval; the growing offset makes i = 3..5 unsafe.
  for (std::uint32_t i = 1; i <= 5; ++i) {
    true_now = config.schedule.interval_start(i) + 50 * sim::kMillisecond;
    receiver.receive(sender.announce(i, bytes_of("m" + std::to_string(i))),
                     oscillator.local_time(true_now));
  }
  EXPECT_EQ(receiver.stats().announces_unsafe, 3u);
  EXPECT_TRUE(receiver.desynced());

  // Wire the handshake transport only now, so the declared desync is
  // observable above (the receive path retries eagerly once wired).
  tesla::TimeSyncClient sync(bytes_of("pairwise"), 99);
  tesla::TimeSyncResponder responder(bytes_of("pairwise"));
  receiver.set_resync_handler(
      [&](sim::SimTime local_now) -> std::optional<tesla::SyncCalibration> {
        const auto request = sync.begin(local_now);
        const auto response = responder.respond(request, true_now);
        return sync.complete(response, local_now + 1);
      });

  // Past the drift window the offset is frozen; an idle tick re-runs the
  // handshake and installs a fresh calibration.
  true_now = 520 * sim::kMillisecond;
  receiver.tick(oscillator.local_time(true_now));
  EXPECT_FALSE(receiver.desynced());
  EXPECT_EQ(receiver.resync_stats().successes, 1u);

  // Accepted again: announce for interval 6, reveal in interval 7.
  true_now = config.schedule.interval_start(6) + 50 * sim::kMillisecond;
  receiver.receive(sender.announce(6, bytes_of("recovered")),
                   oscillator.local_time(true_now));
  EXPECT_EQ(receiver.stats().announces_unsafe, 3u);  // no new rejection
  true_now = config.schedule.interval_start(7) + 5 * sim::kMillisecond;
  const auto message =
      receiver.receive(sender.reveal(6), oscillator.local_time(true_now));
  ASSERT_TRUE(message.has_value());
  EXPECT_EQ(message->message, bytes_of("recovered"));
}

TEST(TeslaPpResilience, DriftingClockDesyncsThenResyncsThenAccepts) {
  tesla::TeslaPpConfig config;
  config.chain_length = 16;
  config.schedule = sim::IntervalSchedule(0, 100 * sim::kMillisecond);
  config.resync.enabled = true;
  config.resync.desync_threshold = 3;
  config.resync.backoff_initial = sim::kMillisecond;
  tesla::TeslaPpSender sender(config, bytes_of("seed"));
  tesla::TeslaPpReceiver receiver(config, sender.chain().commitment(),
                                  bytes_of("local"),
                                  sim::LooseClock(0, 2 * sim::kMillisecond));

  sim::FaultyClock oscillator(sim::LooseClock(0, 2 * sim::kMillisecond));
  oscillator.add(sim::ClockDriftFault{200000.0, 0, 500 * sim::kMillisecond});

  sim::SimTime true_now = 0;
  for (std::uint32_t i = 1; i <= 5; ++i) {
    true_now = config.schedule.interval_start(i) + 50 * sim::kMillisecond;
    receiver.receive(sender.announce(i, bytes_of("m" + std::to_string(i))),
                     oscillator.local_time(true_now));
  }
  EXPECT_EQ(receiver.stats().announces_unsafe, 3u);
  EXPECT_TRUE(receiver.desynced());

  tesla::TimeSyncClient sync(bytes_of("pairwise"), 99);
  tesla::TimeSyncResponder responder(bytes_of("pairwise"));
  receiver.set_resync_handler(
      [&](sim::SimTime local_now) -> std::optional<tesla::SyncCalibration> {
        const auto request = sync.begin(local_now);
        const auto response = responder.respond(request, true_now);
        return sync.complete(response, local_now + 1);
      });

  true_now = 520 * sim::kMillisecond;
  receiver.tick(oscillator.local_time(true_now));
  EXPECT_FALSE(receiver.desynced());
  EXPECT_EQ(receiver.resync_stats().successes, 1u);

  true_now = config.schedule.interval_start(6) + 50 * sim::kMillisecond;
  receiver.receive(sender.announce(6, bytes_of("recovered")),
                   oscillator.local_time(true_now));
  true_now = config.schedule.interval_start(7) + 5 * sim::kMillisecond;
  const auto messages =
      receiver.receive(sender.reveal(6), oscillator.local_time(true_now));
  ASSERT_EQ(messages.size(), 1u);
  EXPECT_EQ(messages[0].message, bytes_of("recovered"));
}

TEST(DapResilience, ResyncBudgetExhaustionClosesEpisodeAndRearms) {
  protocol::DapConfig config;
  config.chain_length = 16;
  config.schedule = sim::IntervalSchedule(0, 100 * sim::kMillisecond);
  config.resync.enabled = true;
  config.resync.desync_threshold = 2;
  config.resync.retry_budget = 2;
  config.resync.backoff_initial = sim::kMillisecond;
  protocol::DapSender sender(config, bytes_of("seed"));
  protocol::DapReceiver receiver(config, sender.chain().commitment(),
                                 bytes_of("local"), sim::LooseClock(0, 0),
                                 Rng(5));
  receiver.set_resync_handler(
      [](sim::SimTime) -> std::optional<tesla::SyncCalibration> {
        return std::nullopt;  // responder unreachable
      });

  // Two stale announces (key long public) declare the episode.
  const auto stale = sender.announce(1, bytes_of("stale"));
  const sim::SimTime late = config.schedule.interval_start(9);
  receiver.receive(stale, late);
  receiver.receive(stale, late + 1);
  EXPECT_TRUE(receiver.desynced());

  // Two failed attempts exhaust the budget and close the episode.
  receiver.tick(late + 2);
  receiver.tick(late + 2 + sim::kMillisecond);
  EXPECT_FALSE(receiver.desynced());
  EXPECT_EQ(receiver.resync_stats().budget_exhausted, 1u);
  EXPECT_EQ(receiver.resync_stats().failures, 2u);

  // Fresh suspicion re-arms a new episode from scratch.
  receiver.receive(stale, late + 3 * sim::kMillisecond);
  receiver.receive(stale, late + 4 * sim::kMillisecond);
  EXPECT_TRUE(receiver.desynced());
  EXPECT_EQ(receiver.resync_stats().desync_episodes, 2u);
}

// ------------------------------------------------ graceful degradation

TEST(DapDegradation, PoolSaturationShedsAndShrinksThenRestores) {
  protocol::DapConfig config;
  config.chain_length = 16;
  config.buffers = 8;
  config.record_pool_limit = 8;
  config.schedule = sim::IntervalSchedule(0, sim::kSecond);
  protocol::DapSender sender(config, bytes_of("seed"));
  protocol::DapReceiver receiver(config, sender.chain().commitment(),
                                 bytes_of("local"), sim::LooseClock(0, 0),
                                 Rng(5));

  // Fill the pool to the cap with one round's records.
  const sim::SimTime t = 10 * sim::kMillisecond;
  for (int k = 0; k < 8; ++k) {
    receiver.receive(sender.announce(1, bytes_of("m" + std::to_string(k))),
                     t);
  }
  EXPECT_EQ(receiver.stored_records(), 8u);
  EXPECT_EQ(receiver.effective_buffers(), 8u);

  // Saturated: the next admission is shed and the reservoir halves.
  receiver.receive(sender.announce(2, bytes_of("over")), t);
  EXPECT_EQ(receiver.stats().admissions_shed, 1u);
  EXPECT_EQ(receiver.effective_buffers(), 4u);
  EXPECT_EQ(receiver.stored_records(), 8u);

  // Announcing interval 3 prunes the long-public round 1, draining the
  // pool below half the cap: capacity is restored and the record admitted.
  receiver.receive(sender.announce(3, bytes_of("fresh")), t);
  EXPECT_EQ(receiver.stats().admissions_shed, 1u);
  EXPECT_EQ(receiver.effective_buffers(), 8u);
  EXPECT_EQ(receiver.stored_records(), 1u);
}

TEST(TeslaPpDegradation, PoolSaturationShedsOutright) {
  tesla::TeslaPpConfig config;
  config.chain_length = 16;
  config.record_pool_limit = 4;
  config.schedule = sim::IntervalSchedule(0, sim::kSecond);
  tesla::TeslaPpSender sender(config, bytes_of("seed"));
  tesla::TeslaPpReceiver receiver(config, sender.chain().commitment(),
                                  bytes_of("local"), sim::LooseClock(0, 0));

  const sim::SimTime t = 10 * sim::kMillisecond;
  for (int k = 0; k < 4; ++k) {
    receiver.receive(sender.announce(1, bytes_of("m" + std::to_string(k))),
                     t);
  }
  EXPECT_EQ(receiver.stored_records(), 4u);
  receiver.receive(sender.announce(1, bytes_of("over")), t);
  EXPECT_EQ(receiver.stats().admissions_shed, 1u);
  EXPECT_EQ(receiver.stored_records(), 4u);
}

// ------------------------------------------------------ crash/restart

TEST(DapResilience, CrashRestartKeepsChainAnchorAndReauthenticates) {
  protocol::DapConfig config;
  config.chain_length = 16;
  config.schedule = sim::IntervalSchedule(0, sim::kSecond);
  protocol::DapSender sender(config, bytes_of("seed"));
  protocol::DapReceiver receiver(config, sender.chain().commitment(),
                                 bytes_of("local"), sim::LooseClock(0, 0),
                                 Rng(5));

  // Authenticate interval 1 normally (advances the chain anchor to K_1).
  receiver.receive(sender.announce(1, bytes_of("before")),
                   10 * sim::kMillisecond);
  ASSERT_TRUE(receiver
                  .receive(sender.reveal(1),
                           config.schedule.interval_start(2) + 10)
                  .has_value());

  // Buffer a round, then crash: volatile state gone, anchor kept.
  receiver.receive(sender.announce(2, bytes_of("lost-in-crash")),
                   config.schedule.interval_start(2) + 20);
  receiver.crash_restart(config.schedule.interval_start(2) + 30);
  EXPECT_EQ(receiver.stats().crash_restarts, 1u);
  EXPECT_EQ(receiver.stored_records(), 0u);
  EXPECT_FALSE(receiver.desynced());

  // The buffered round died with the crash...
  EXPECT_FALSE(receiver
                   .receive(sender.reveal(2),
                            config.schedule.interval_start(3) + 10)
                   .has_value());
  // ...but fresh rounds authenticate forward from the surviving anchor.
  receiver.receive(sender.announce(3, bytes_of("after")),
                   config.schedule.interval_start(3) + 20);
  const auto message = receiver.receive(
      sender.reveal(3), config.schedule.interval_start(4) + 10);
  ASSERT_TRUE(message.has_value());
  EXPECT_EQ(message->message, bytes_of("after"));
  EXPECT_EQ(receiver.stats().weak_auth_failures, 0u);
}

}  // namespace
}  // namespace dap
