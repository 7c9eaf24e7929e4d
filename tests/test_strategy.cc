// Tests for src/strategy: the adaptive replicator adversary, Sybil
// cohorts, cooperative verification, the MABS batch-signature baseline,
// and the attack estimator and adaptive defender — the pieces that close
// the evolutionary-game loop online.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "fleet/scenario.h"
#include "strategy/mabs.h"
#include "strategy/runner.h"

namespace dap {
namespace {

// Mirrors bench/game_loop's ESS sweep base: small reservoir (m = 2) and
// a heavy flood so the oracle share sits in the interior.
fleet::ScenarioSpec adaptive_base() {
  fleet::ScenarioSpec spec;
  spec.name = "strategy-test";
  spec.seed = 42;
  spec.buffers = 2;
  spec.members_per_cohort = 12;
  spec.intervals = 32;
  spec.interval_us = 200 * sim::kMillisecond;
  spec.forged_fraction = 0.75;
  spec.strategy.adaptive.enabled = true;
  return spec;
}

fleet::ScenarioSpec tree_spec() {
  auto spec = adaptive_base();
  spec.kind = fleet::TopologyKind::kTree;
  spec.depth = 2;
  spec.fanout = 1;
  return spec;
}

fleet::ScenarioSpec gossip_spec() {
  auto spec = adaptive_base();
  spec.kind = fleet::TopologyKind::kGossip;
  spec.relays = 4;
  spec.fanin = 2;
  return spec;
}

fleet::ScenarioSpec flood_spec() {
  auto spec = adaptive_base();
  spec.kind = fleet::TopologyKind::kFlood;
  spec.receivers = 3;
  return spec;
}

fleet::ScenarioSpec sybil_spec() {
  fleet::ScenarioSpec spec;
  spec.name = "strategy-test";
  spec.seed = 7;
  spec.kind = fleet::TopologyKind::kGossip;
  spec.relays = 3;
  spec.fanin = 2;
  spec.members_per_cohort = 6;
  spec.intervals = 16;
  spec.interval_us = 200 * sim::kMillisecond;
  spec.strategy.sybil.enabled = true;
  spec.strategy.sybil.cohort = 4;
  return spec;
}

fleet::ScenarioSpec coop_spec(bool enabled, bool poisoned) {
  fleet::ScenarioSpec spec;
  spec.name = "strategy-test";
  spec.seed = 11;
  spec.kind = fleet::TopologyKind::kTree;
  spec.depth = 2;
  spec.fanout = 2;
  spec.members_per_cohort = 8;
  spec.intervals = 16;
  spec.interval_us = 200 * sim::kMillisecond;
  spec.forged_fraction = 0.5;
  spec.strategy.coop.enabled = enabled;
  spec.strategy.coop.audit_fraction = 0.5;
  spec.strategy.coop.poisoned = poisoned;
  return spec;
}

// ---------------------------------------------------- adaptive adversary

// Acceptance criterion of the PR: the online learner's empirical attack
// share lands within tolerance of the offline ESS oracle on at least
// three distinct scenario kinds. Tolerance matches bench/game_loop's
// gate (the sentinel feedback bias is documented there).
TEST(Strategy, AdaptiveAttackerTracksOracleAcrossTopologies) {
  const fleet::ScenarioSpec specs[] = {tree_spec(), gossip_spec(),
                                       flood_spec()};
  for (const auto& spec : specs) {
    const auto outcome = strategy::run_scenario(spec);
    EXPECT_GT(outcome.attacks_launched, 0u) << spec.id();
    EXPECT_EQ(outcome.report.forged_accepted, 0u) << spec.id();
    EXPECT_GT(outcome.oracle_share, 0.0) << spec.id();
    EXPECT_DOUBLE_EQ(outcome.oracle_share,
                     strategy::oracle_attack_share(spec))
        << spec.id();
    EXPECT_LE(outcome.ess_gap, 0.2)
        << spec.id() << " measured=" << outcome.attacker_share
        << " oracle=" << outcome.oracle_share;
  }
}

TEST(Strategy, OracleAttackShareRequiresAdaptiveSpec) {
  fleet::ScenarioSpec plain;
  EXPECT_THROW((void)strategy::oracle_attack_share(plain),
               std::invalid_argument);
}

TEST(Strategy, AdaptiveRunIsDeterministicInTheSeed) {
  const auto spec = tree_spec();
  const auto a = strategy::run_scenario(spec);
  const auto b = strategy::run_scenario(spec);
  EXPECT_DOUBLE_EQ(a.attacker_share, b.attacker_share);
  EXPECT_EQ(a.attacks_launched, b.attacks_launched);
  EXPECT_EQ(a.report.member_auths, b.report.member_auths);
}

// ------------------------------------------------------------ sybil

// The coordinated cohort floods announces and staggered reveals built on
// a forged chain; the ingress guards and chain-anchor checks must hold
// the line — zero forged authentications while the cohort is active.
TEST(Strategy, SybilCohortNeverAuthenticates) {
  const auto outcome = strategy::run_scenario(sybil_spec());
  EXPECT_GT(outcome.sybil_announces, 0u);
  EXPECT_GT(outcome.sybil_reveals, 0u);
  EXPECT_EQ(outcome.report.forged_accepted, 0u);
  // Authentic traffic still flows under the Sybil flood.
  EXPECT_GT(outcome.report.member_auths, 0u);
}

// ----------------------------------------------------- cooperative

TEST(Strategy, CoopSharingSkipsWalksWithoutChangingOutcomes) {
  const auto baseline = strategy::run_scenario(coop_spec(false, false));
  const auto coop = strategy::run_scenario(coop_spec(true, false));
  // Honest verdict sharing is an optimization, not a behavior change.
  EXPECT_EQ(coop.report.member_auths, baseline.report.member_auths);
  EXPECT_EQ(coop.report.sentinel_auths, baseline.report.sentinel_auths);
  EXPECT_EQ(coop.report.forged_accepted, 0u);
  EXPECT_GT(coop.coop_verdicts_shared, 0u);
  EXPECT_GT(coop.coop_walks_skipped, 0u);
  EXPECT_EQ(baseline.coop_verdicts_shared, 0u);
}

TEST(Strategy, PoisonedVerdictsAreAuditedAndNeverAdmitForgeries) {
  const auto outcome = strategy::run_scenario(coop_spec(true, true));
  // The audits catch the liar; invalid-verdicts-only trust means the
  // worst case is lost work, never a forged acceptance.
  EXPECT_GT(outcome.coop_poisoned_rejected, 0u);
  EXPECT_GT(outcome.coop_hint_audits, 0u);
  EXPECT_EQ(outcome.report.forged_accepted, 0u);
}

// ------------------------------------------------------------- MABS

TEST(Strategy, MabsAuthenticatesImmediatelyWithZeroStoredState) {
  strategy::MabsConfig config;
  config.seed = 42;
  config.intervals = 12;
  config.packets_per_interval = 8;
  config.forged_per_interval = 16;
  config.signer_height = 6;
  const auto report = strategy::run_mabs(config);
  EXPECT_TRUE(report.zero_forged());
  EXPECT_EQ(report.forged_sent, 12u * 16u);
  EXPECT_EQ(report.authenticated, report.packets_sent);
  EXPECT_DOUBLE_EQ(report.auth_rate, 1.0);
  // The headline structural property: no buffering window at all.
  EXPECT_EQ(report.stored_records, 0u);
  // Root signatures verify once per batch, not once per packet.
  EXPECT_EQ(report.signature_verifications, 12u);
  EXPECT_GE(report.path_verifications, report.packets_sent);
  EXPECT_GT(report.bits_sent, 0u);
}

TEST(Strategy, MabsRejectsInvalidConfigs) {
  strategy::MabsConfig zero_batch;
  zero_batch.packets_per_interval = 0;
  EXPECT_THROW((void)strategy::run_mabs(zero_batch), std::invalid_argument);

  strategy::MabsConfig exhausted;
  exhausted.intervals = 64;
  exhausted.signer_height = 3;  // 2^3 = 8 roots < 64 intervals
  EXPECT_THROW((void)strategy::run_mabs(exhausted), std::invalid_argument);
}

// ---------------------------------------------------- scenario plumbing

TEST(Strategy, ValidateRejectsAdaptiveWithoutFlood) {
  auto spec = tree_spec();
  spec.forged_fraction = 0.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace dap

// ------------------------------------------- attack estimation + defender

#include "sim/adversary.h"
#include "strategy/defender.h"

namespace dap::strategy {
namespace {

using common::bytes_of;
using common::Rng;

TEST(AttackEstimator, NoTrafficMeansNoAttack) {
  AttackEstimator est(2);
  est.observe_interval(2);
  EXPECT_DOUBLE_EQ(est.estimate(), 0.0);
  est.observe_interval(1);  // fewer than expected (loss) still not attack
  EXPECT_DOUBLE_EQ(est.estimate(), 0.0);
}

TEST(AttackEstimator, RawEstimateMatchesForgedFraction) {
  AttackEstimator est(2, 1.0);  // no smoothing
  est.observe_interval(10);     // 8 forged of 10
  EXPECT_NEAR(est.estimate(), 0.8, 1e-12);
  EXPECT_NEAR(est.last_raw(), 0.8, 1e-12);
}

TEST(AttackEstimator, EwmaSmoothsTowardNewValue) {
  AttackEstimator est(1, 0.5);
  est.observe_interval(5);  // raw 0.8; first observation adopts raw
  EXPECT_NEAR(est.estimate(), 0.8, 1e-12);
  est.observe_interval(1);  // raw 0
  EXPECT_NEAR(est.estimate(), 0.4, 1e-12);
  EXPECT_EQ(est.intervals_observed(), 2u);
}

TEST(AttackEstimator, EstimateStaysBelowOne) {
  AttackEstimator est(1, 1.0);
  est.observe_interval(100000);
  EXPECT_LT(est.estimate(), 1.0);
}

TEST(AttackEstimator, RejectsBadConstruction) {
  EXPECT_THROW(AttackEstimator(0), std::invalid_argument);
  EXPECT_THROW(AttackEstimator(1, 0.0), std::invalid_argument);
  EXPECT_THROW(AttackEstimator(1, 1.5), std::invalid_argument);
}

protocol::DapConfig dap_config() {
  protocol::DapConfig config;
  config.chain_length = 200;
  config.buffers = 1;
  config.schedule = sim::IntervalSchedule(0, sim::kSecond);
  return config;
}

AdaptiveConfig adaptive_config() {
  AdaptiveConfig config;
  config.expected_copies = 1;
  config.retune_period = 4;
  config.estimator_smoothing = 1.0;  // react immediately (test clarity)
  return config;
}

protocol::DapReceiver make_receiver(const protocol::DapSender& sender,
                                    std::uint64_t seed) {
  return protocol::DapReceiver(dap_config(), sender.chain().commitment(),
                               bytes_of("local"), sim::LooseClock(0, 0),
                               Rng(seed));
}

sim::SimTime mid(std::uint32_t interval) {
  return (interval - 1) * sim::kSecond + sim::kSecond / 2;
}

TEST(AdaptiveDefender, RetunesBuffersUnderAttack) {
  protocol::DapSender sender(dap_config(), bytes_of("seed"));
  auto receiver = make_receiver(sender, 1);
  AdaptiveDefender defender(adaptive_config());
  sim::FloodingForger forger(dap_config().sender_id, dap_config().mac_size,
                             Rng(2));
  EXPECT_EQ(receiver.buffers(), 1u);
  // 8 intervals of p = 0.8 flooding (1 authentic + 4 forged copies).
  for (std::uint32_t i = 1; i <= 8; ++i) {
    receiver.receive(sender.announce(i, bytes_of("m")), mid(i));
    for (int f = 0; f < 4; ++f) receiver.receive(forger.forge(i), mid(i));
    (void)receiver.receive(sender.reveal(i), mid(i + 1));
    defender.close_interval(receiver, 5);
  }
  // p̂ = 0.8 -> the paper-mode optimiser picks the first interior m (17).
  EXPECT_NEAR(defender.estimated_p(), 0.8, 0.01);
  EXPECT_EQ(receiver.buffers(), 17u);
  EXPECT_EQ(defender.stats().retunes, 2u);
  EXPECT_GT(defender.stats().defense_share_x, 0.9);
}

TEST(AdaptiveDefender, RelaxesWhenAttackStops) {
  protocol::DapSender sender(dap_config(), bytes_of("seed"));
  auto receiver = make_receiver(sender, 3);
  AdaptiveDefender defender(adaptive_config());
  sim::FloodingForger forger(dap_config().sender_id, dap_config().mac_size,
                             Rng(4));
  for (std::uint32_t i = 1; i <= 4; ++i) {
    receiver.receive(sender.announce(i, bytes_of("m")), mid(i));
    for (int f = 0; f < 9; ++f) receiver.receive(forger.forge(i), mid(i));
    (void)receiver.receive(sender.reveal(i), mid(i + 1));
    defender.close_interval(receiver, 10);
  }
  EXPECT_GT(receiver.buffers(), 10u);
  // Attack stops; estimator (smoothing 1.0) sees clean intervals.
  for (std::uint32_t i = 5; i <= 8; ++i) {
    receiver.receive(sender.announce(i, bytes_of("m")), mid(i));
    (void)receiver.receive(sender.reveal(i), mid(i + 1));
    defender.close_interval(receiver, 1);
  }
  EXPECT_EQ(receiver.buffers(), 1u);
  EXPECT_DOUBLE_EQ(defender.stats().defense_share_x, 0.0);
}

TEST(AdaptiveDefender, CostLedgerChargesDefenseAndLosses) {
  auto config = adaptive_config();
  config.retune_period = 1000;  // no retuning; fixed m = 1
  protocol::DapSender sender(dap_config(), bytes_of("seed"));
  auto receiver = make_receiver(sender, 5);
  AdaptiveDefender defender(config);
  // Interval 1: clean success. Interval 2: reveal for a never-announced
  // interval (attack succeeded).
  receiver.receive(sender.announce(1, bytes_of("m")), mid(1));
  (void)receiver.receive(sender.reveal(1), mid(2));
  defender.close_interval(receiver, 1);
  (void)sender.announce(2, bytes_of("m"));
  (void)receiver.receive(sender.reveal(2), mid(3));
  defender.close_interval(receiver, 1);
  EXPECT_EQ(defender.stats().attacks_defeated, 1u);
  EXPECT_EQ(defender.stats().attacks_succeeded, 1u);
  // Cost: 2 intervals * k2 * m(=1) + 1 loss * Ra.
  EXPECT_NEAR(defender.stats().realized_cost, 2 * 4.0 + 200.0, 1e-9);
  EXPECT_NEAR(defender.average_cost(), (8.0 + 200.0) / 2, 1e-9);
}

TEST(AdaptiveDefender, AdaptiveBeatsFixedSmallBufferUnderHeavyAttack) {
  // End-to-end comparison: adaptive m vs a fixed m=1 defender under a
  // p = 0.9 flood; the adaptive one should defeat far more attacks.
  auto config = adaptive_config();
  config.retune_period = 2;
  protocol::DapSender sender_a(dap_config(), bytes_of("seed-a"));
  protocol::DapSender sender_b(dap_config(), bytes_of("seed-a"));
  auto adaptive = make_receiver(sender_a, 6);
  AdaptiveDefender defender(config);
  auto fixed = make_receiver(sender_b, 7);
  sim::FloodingForger forger(dap_config().sender_id, dap_config().mac_size,
                             Rng(8));
  std::size_t adaptive_ok = 0, fixed_ok = 0;
  for (std::uint32_t i = 1; i <= 60; ++i) {
    const auto announce_a = sender_a.announce(i, bytes_of("m"));
    const auto announce_b = sender_b.announce(i, bytes_of("m"));
    adaptive.receive(announce_a, mid(i));
    fixed.receive(announce_b, mid(i));
    for (int f = 0; f < 9; ++f) {
      const auto forged = forger.forge(i);
      adaptive.receive(forged, mid(i));
      fixed.receive(forged, mid(i));
    }
    if (adaptive.receive(sender_a.reveal(i), mid(i + 1))) ++adaptive_ok;
    if (fixed.receive(sender_b.reveal(i), mid(i + 1))) ++fixed_ok;
    defender.close_interval(adaptive, 10);
  }
  EXPECT_GT(adaptive_ok, 2 * fixed_ok);
}

}  // namespace
}  // namespace dap::strategy
