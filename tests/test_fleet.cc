// Tests for the fleet subsystem: relay topologies, scenario validation,
// receiver cohorts (statistical members + sentinel), and the end-to-end
// FleetSim — including the headline guarantees that a fleet run is
// bitwise identical at any thread count and that forged messages never
// authenticate. The multi-hop fault-composition cases (duplicates
// multiply across hops, blackouts compose with clean hops) live here
// too. The TSan CI job runs this binary via `ctest -L test_fleet`.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "dap/dap.h"
#include "fleet/cohort.h"
#include "fleet/fleet.h"
#include "fleet/scenario.h"
#include "fleet/topology.h"
#include "obs/registry.h"
#include "obs/snapshot.h"
#include "obs/tracer.h"
#include "sim/adversary.h"
#include "sim/channel.h"
#include "sim/faults.h"
#include "sim/time.h"
#include "tesla/verdict.h"

namespace dap {
namespace {

// Pins the process default thread count for one test body, restoring
// the unpinned default afterwards.
class ThreadGuard {
 public:
  explicit ThreadGuard(std::size_t n) { common::set_default_threads(n); }
  ~ThreadGuard() { common::set_default_threads(0); }
};

// ------------------------------------------------------------- topologies

TEST(Topology, TreeShape) {
  const fleet::Topology topo = fleet::tree_topology(3, 2);
  EXPECT_EQ(topo.node_count, 15u);  // 1 + 2 + 4 + 8
  EXPECT_EQ(topo.depth(), 3u);
  EXPECT_EQ(topo.leaves().size(), 8u);
  EXPECT_NO_THROW(topo.validate());
  for (const auto& [from, to] : topo.edges) {
    EXPECT_LT(from, to);
  }
  const auto depths = topo.depths();
  EXPECT_EQ(depths[0], 0u);
  EXPECT_EQ(depths[1], 1u);
  EXPECT_EQ(depths[14], 3u);
}

TEST(Topology, ChainIsDegenerateTree) {
  const fleet::Topology topo = fleet::tree_topology(2, 1);
  EXPECT_EQ(topo.node_count, 3u);
  ASSERT_EQ(topo.edges.size(), 2u);
  EXPECT_EQ(topo.edges[0], (std::pair<std::uint32_t, std::uint32_t>{0, 1}));
  EXPECT_EQ(topo.edges[1], (std::pair<std::uint32_t, std::uint32_t>{1, 2}));
}

TEST(Topology, GridShape) {
  const fleet::Topology topo = fleet::grid_topology(3, 4);
  EXPECT_EQ(topo.node_count, 12u);
  EXPECT_EQ(topo.depth(), 5u);  // Manhattan distance to the far corner
  EXPECT_NO_THROW(topo.validate());
  // Exactly one pure sink: the bottom-right corner.
  const auto leaves = topo.leaves();
  ASSERT_EQ(leaves.size(), 1u);
  EXPECT_EQ(leaves[0], 11u);
}

TEST(Topology, GossipIsSeedDeterministic) {
  const fleet::Topology a = fleet::gossip_topology(32, 2, 7);
  const fleet::Topology b = fleet::gossip_topology(32, 2, 7);
  const fleet::Topology c = fleet::gossip_topology(32, 2, 8);
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_NE(a.edges, c.edges);
  EXPECT_NO_THROW(a.validate());
  // Node i has min(fanin, i) parents.
  std::vector<std::size_t> parents(a.node_count, 0);
  for (const auto& [from, to] : a.edges) {
    (void)from;
    ++parents[to];
  }
  EXPECT_EQ(parents[1], 1u);
  for (std::uint32_t v = 2; v < a.node_count; ++v) {
    EXPECT_EQ(parents[v], 2u) << "node " << v;
  }
}

TEST(Topology, FloodShape) {
  const fleet::Topology topo = fleet::flood_topology(9);
  EXPECT_EQ(topo.node_count, 10u);
  EXPECT_EQ(topo.depth(), 1u);
  EXPECT_EQ(topo.leaves().size(), 9u);
  EXPECT_NO_THROW(topo.validate());
}

TEST(Topology, ValidateRejectsMalformedGraphs) {
  fleet::Topology backward;
  backward.node_count = 3;
  backward.edges = {{0, 1}, {2, 1}};  // violates from < to
  EXPECT_THROW(backward.validate(), std::invalid_argument);

  fleet::Topology out_of_range;
  out_of_range.node_count = 2;
  out_of_range.edges = {{0, 1}, {1, 5}};
  EXPECT_THROW(out_of_range.validate(), std::invalid_argument);

  fleet::Topology duplicate;
  duplicate.node_count = 2;
  duplicate.edges = {{0, 1}, {0, 1}};
  EXPECT_THROW(duplicate.validate(), std::invalid_argument);

  fleet::Topology unreachable;
  unreachable.node_count = 3;
  unreachable.edges = {{0, 1}};  // node 2 never receives anything
  EXPECT_THROW(unreachable.validate(), std::invalid_argument);
}

// ------------------------------------------------------------- scenarios

fleet::ScenarioSpec sample_spec() {
  fleet::ScenarioSpec spec;
  spec.name = "sample";
  spec.seed = 99;
  spec.kind = fleet::TopologyKind::kTree;
  spec.depth = 2;
  spec.fanout = 3;
  spec.members_per_cohort = 25;
  spec.buffers = 6;
  spec.intervals = 5;
  spec.interval_us = 100 * sim::kMillisecond;
  spec.forged_fraction = 0.5;
  spec.attackers = {0, 1};
  spec.relay_dedup = false;
  spec.hop.loss = 0.125;
  spec.hop.duplicate_probability = 0.25;
  spec.hop.latency_us = 2 * sim::kMillisecond;
  spec.hop.jitter_us = 500;
  return spec;
}

TEST(Scenario, ValidateRejectsSinkAttacker) {
  fleet::ScenarioSpec spec;
  spec.kind = fleet::TopologyKind::kFlood;
  spec.receivers = 4;
  spec.attackers = {3};  // a leaf: no egress medium to inject into
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.attackers = {0};
  EXPECT_NO_THROW(spec.validate());
}

TEST(Scenario, IdAndTotals) {
  const fleet::ScenarioSpec spec = sample_spec();
  EXPECT_EQ(spec.id(), "tree_d2f3_m25_p0.5");
  // Tree with depth 2, fanout 3: 13 nodes (12 cohorts by default), 9
  // of them leaves.
  const fleet::Topology topo = spec.build_topology();
  EXPECT_EQ(topo.node_count, 13u);
  EXPECT_EQ(topo.leaves().size(), 9u);
}

TEST(Scenario, FaultPlanMarksChaosIdAndClearHorizon) {
  fleet::ScenarioSpec spec = sample_spec();
  spec.guard.capacity = 256;
  spec.guard.budget_mbps = 2.5;
  spec.guard.burst_bits = 4096.0;
  spec.faults.relay_crashes.push_back({1, 2, 1, 50 * sim::kMillisecond});
  spec.faults.partitions.push_back({0, 1, 2, 3});
  spec.faults.degraded.push_back({2, 0.5});
  EXPECT_NO_THROW(spec.validate());
  // Fault plans mark the scenario id so baselines never mix chaos and
  // clean runs under one key.
  EXPECT_EQ(spec.id(), "tree_d2f3_m25_p0.5_chaos");
  // Crashes rejoin at 3, partition heals at 3 -> horizon is interval 3.
  EXPECT_EQ(spec.faults.last_clear_interval(), 3u);
  EXPECT_EQ(sample_spec().faults.last_clear_interval(), 0u);
}

TEST(Scenario, ValidateRejectsBadGuardAndFaults) {
  const auto with = [](auto mutate) {
    fleet::ScenarioSpec spec;
    spec.kind = fleet::TopologyKind::kTree;
    spec.depth = 2;
    spec.fanout = 2;
    mutate(spec);
    return spec;
  };
  EXPECT_THROW(with([](fleet::ScenarioSpec& s) {
                 s.guard.capacity = 48;  // not a power of two
               }).validate(),
               std::invalid_argument);
  EXPECT_THROW(with([](fleet::ScenarioSpec& s) {
                 s.guard.budget_mbps = -1.0;
               }).validate(),
               std::invalid_argument);
  EXPECT_THROW(with([](fleet::ScenarioSpec& s) {
                 s.faults.relay_crashes.push_back({0, 1, 1, 0});  // root
               }).validate(),
               std::invalid_argument);
  EXPECT_THROW(with([](fleet::ScenarioSpec& s) {
                 s.faults.relay_crashes.push_back({1, 0, 1, 0});  // at 0
               }).validate(),
               std::invalid_argument);
  EXPECT_THROW(with([](fleet::ScenarioSpec& s) {
                 // (1, 2) is not an edge of the depth-2 fanout-2 tree.
                 s.faults.partitions.push_back({1, 2, 1, 2});
               }).validate(),
               std::invalid_argument);
  EXPECT_THROW(with([](fleet::ScenarioSpec& s) {
                 // until must exceed from.
                 s.faults.partitions.push_back({0, 1, 2, 2});
               }).validate(),
               std::invalid_argument);
  EXPECT_THROW(with([](fleet::ScenarioSpec& s) {
                 s.faults.degraded.push_back({1, 0.0});
               }).validate(),
               std::invalid_argument);
  EXPECT_NO_THROW(with([](fleet::ScenarioSpec& s) {
                    s.faults.relay_crashes.push_back({1, 1, 1, 0});
                    s.faults.partitions.push_back({0, 1, 1, 2});
                    s.faults.degraded.push_back({1, 0.5});
                  }).validate());
}

TEST(Scenario, ValidateEnforcesResourceCeilings) {
  // A spec must not be able to command an absurd allocation: validate()
  // rejects it from the estimated node count alone, before any topology
  // is built.
  const auto with = [](auto mutate) {
    fleet::ScenarioSpec spec;  // default: a one-receiver flood
    mutate(spec);
    return spec;
  };
  EXPECT_THROW(with([](fleet::ScenarioSpec& s) {
                 s.kind = fleet::TopologyKind::kTree;
                 s.depth = 60;
                 s.fanout = 2;
               }).validate(),
               std::invalid_argument);
  EXPECT_THROW(with([](fleet::ScenarioSpec& s) {
                 s.receivers = 100000000;
               }).validate(),
               std::invalid_argument);
  EXPECT_THROW(with([](fleet::ScenarioSpec& s) {
                 s.members_per_cohort = 1000000000000;
               }).validate(),
               std::invalid_argument);
  EXPECT_THROW(with([](fleet::ScenarioSpec& s) {
                 s.members_per_cohort = 0;
               }).validate(),
               std::invalid_argument);
  EXPECT_THROW(with([](fleet::ScenarioSpec& s) {
                 s.forged_fraction = 1.5;
               }).validate(),
               std::invalid_argument);
  // Each ceiling holds at its limit and rejects one past it.
  EXPECT_NO_THROW(with([](fleet::ScenarioSpec& s) {
                    s.members_per_cohort = std::size_t{1} << 24;
                    s.buffers = std::size_t{1} << 16;
                    s.intervals = 1U << 20;
                    s.guard.capacity = std::size_t{1} << 22;
                  }).validate());
  EXPECT_THROW(with([](fleet::ScenarioSpec& s) {
                 s.members_per_cohort = (std::size_t{1} << 24) + 1;
               }).validate(),
               std::invalid_argument);
  EXPECT_THROW(with([](fleet::ScenarioSpec& s) {
                 s.buffers = (std::size_t{1} << 16) + 1;
               }).validate(),
               std::invalid_argument);
  EXPECT_THROW(with([](fleet::ScenarioSpec& s) {
                 s.intervals = (1U << 20) + 1;
               }).validate(),
               std::invalid_argument);
  // The next power of two: past the ceiling, not merely malformed.
  EXPECT_THROW(with([](fleet::ScenarioSpec& s) {
                 s.guard.capacity = std::size_t{1} << 23;
               }).validate(),
               std::invalid_argument);
}

// --------------------------------------------------------------- cohorts

protocol::DapConfig cohort_dap_config() {
  protocol::DapConfig config;
  config.sender_id = 1;
  config.chain_length = 16;
  config.disclosure_delay = 1;
  config.buffers = 4;
  config.schedule = sim::IntervalSchedule(0, 200 * sim::kMillisecond);
  return config;
}

fleet::CohortConfig cohort_config(std::size_t members, std::uint64_t seed) {
  fleet::CohortConfig config;
  config.members = members;
  config.dap = cohort_dap_config();
  config.seed = seed;
  config.clock = sim::LooseClock(0, sim::kMillisecond);
  return config;
}

sim::SimTime announce_time(const protocol::DapConfig& config,
                           std::uint32_t i) {
  return config.schedule.interval_start(i) + config.schedule.duration() / 2;
}

sim::SimTime drain_time(const protocol::DapConfig& config, std::uint32_t i) {
  return config.schedule.interval_start(i + 1) +
         config.schedule.duration() * 3 / 4;
}

TEST(Cohort, EveryMemberAuthenticatesOnCleanDelivery) {
  const fleet::CohortConfig config = cohort_config(33, 5);
  protocol::DapSender sender(config.dap, common::Rng(1).bytes(16));
  fleet::ReceiverCohort cohort(config, sender.chain().commitment());

  for (std::uint32_t i = 1; i <= 3; ++i) {
    cohort.receive_announce(sender.announce(i, common::bytes_of("m")),
                            announce_time(config.dap, i));
    cohort.enqueue_reveal(sender.reveal(i));
    const auto outcomes = cohort.drain(drain_time(config.dap, i));
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].interval, i);
    EXPECT_EQ(outcomes[0].members_authenticated, 32u);
    EXPECT_TRUE(outcomes[0].sentinel_authenticated);
  }
  EXPECT_EQ(cohort.stats().member_auths, 3u * 32u);
  EXPECT_EQ(cohort.stats().sentinel_auths, 3u);
  EXPECT_EQ(cohort.stats().member_auth_misses, 0u);
  EXPECT_EQ(cohort.stats().weak_auth_failures, 0u);
}

TEST(Cohort, StaleAnnounceFailsSafetyCheck) {
  const fleet::CohortConfig config = cohort_config(8, 5);
  protocol::DapSender sender(config.dap, common::Rng(1).bytes(16));
  fleet::ReceiverCohort cohort(config, sender.chain().commitment());

  // Interval 1's announce arriving during interval 4: i + d < x, the key
  // is long public, so nothing may be stored (replay defense).
  cohort.receive_announce(sender.announce(1, common::bytes_of("m")),
                          announce_time(config.dap, 4));
  EXPECT_EQ(cohort.stats().announces_unsafe, 1u);
  EXPECT_EQ(cohort.stored_for_interval(1), 0u);
}

TEST(Cohort, MacKeyDerivedOncePerIntervalPerDrain) {
  const fleet::CohortConfig config = cohort_config(16, 5);
  protocol::DapSender sender(config.dap, common::Rng(1).bytes(16));
  fleet::ReceiverCohort cohort(config, sender.chain().commitment());

  // Three messages announced in interval 1 and revealed together: the
  // batched drain derives F'(K_1) once, for the core and the sentinel.
  const sim::SimTime t = announce_time(config.dap, 1);
  for (const char* msg : {"a", "b", "c"}) {
    cohort.receive_announce(sender.announce(1, common::bytes_of(msg)), t);
  }
  for (std::size_t k = 0; k < 3; ++k) {
    cohort.enqueue_reveal(sender.reveal(1, k));
  }
  const auto outcomes = cohort.drain(drain_time(config.dap, 1));
  ASSERT_EQ(outcomes.size(), 3u);
  for (const auto& outcome : outcomes) {
    EXPECT_EQ(outcome.members_authenticated, 15u);
    EXPECT_TRUE(outcome.sentinel_authenticated);
  }
  EXPECT_EQ(cohort.stats().mac_key_derivations, 1u);
  EXPECT_EQ(cohort.sentinel().stats().mac_key_derivations, 1u);
}

TEST(Cohort, FloodFillsReservoirsButForgesNeverAuthenticate) {
  const fleet::CohortConfig config = cohort_config(64, 5);
  protocol::DapSender sender(config.dap, common::Rng(1).bytes(16));
  fleet::ReceiverCohort cohort(config, sender.chain().commitment());
  sim::FloodingForger forger(config.dap.sender_id, config.dap.mac_size,
                             common::Rng(77));
  sim::KeyGuessForger key_forger(config.dap.sender_id, config.dap.key_size,
                                 common::Rng(78));

  const sim::SimTime t = announce_time(config.dap, 1);
  cohort.receive_announce(sender.announce(1, common::bytes_of("m")), t);
  for (int n = 0; n < 36; ++n) {  // forged fraction ~0.97 per cohort
    cohort.receive_announce(forger.forge(1), t);
  }
  cohort.enqueue_reveal(sender.reveal(1));
  cohort.enqueue_reveal(key_forger.forge_reveal(1, common::bytes_of("F")));
  const auto outcomes = cohort.drain(drain_time(config.dap, 1));
  ASSERT_EQ(outcomes.size(), 2u);

  // Authentic reveal: some members lost the record to the flood, none
  // gained a forged acceptance. 37 offers into 4 slots keeps the
  // authentic MAC with probability ~4/37 per member.
  EXPECT_GT(outcomes[0].members_authenticated, 0u);
  EXPECT_LT(outcomes[0].members_authenticated, 63u);
  EXPECT_EQ(outcomes[0].members_authenticated +
                cohort.stats().member_auth_misses,
            63u);
  // Forged reveal: the guessed key fails weak authentication outright.
  EXPECT_EQ(outcomes[1].members_authenticated, 0u);
  EXPECT_FALSE(outcomes[1].sentinel_authenticated);
  EXPECT_EQ(cohort.stats().weak_auth_failures, 1u);
  // Reservoirs are full of garbage — exactly the memory-DoS picture.
  EXPECT_GE(cohort.stats().stored_records_peak, 63u * 3u);
}

TEST(Cohort, MatchedSlotIsClosedBeforeALateOffer) {
  // At d = 2 an announce for interval 1 is still safe after interval 1's
  // first reveal matched. The match must close its slot (the kernel's
  // prefix layout) so the late copy fills the free tail slot instead of
  // overwriting the record the second reveal still needs.
  fleet::CohortConfig config = cohort_config(2, 5);
  config.dap.buffers = 2;
  config.dap.disclosure_delay = 2;
  protocol::DapSender sender(config.dap, common::Rng(1).bytes(16));
  fleet::ReceiverCohort cohort(config, sender.chain().commitment());
  sim::FloodingForger forger(config.dap.sender_id, config.dap.mac_size,
                             common::Rng(77));

  const sim::SimTime t = announce_time(config.dap, 1);
  cohort.receive_announce(sender.announce(1, common::bytes_of("a")), t);
  cohort.receive_announce(sender.announce(1, common::bytes_of("b")), t);
  cohort.enqueue_reveal(sender.reveal(1, 0));
  auto outcomes = cohort.drain(drain_time(config.dap, 1));
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].members_authenticated, 1u);

  const sim::SimTime late = drain_time(config.dap, 1) + 1;
  cohort.receive_announce(forger.forge(1), late);
  EXPECT_EQ(cohort.stats().announces_unsafe, 0u);
  cohort.enqueue_reveal(sender.reveal(1, 1));
  outcomes = cohort.drain(late + 1);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].members_authenticated, 1u);
  EXPECT_TRUE(outcomes[0].sentinel_authenticated);
  EXPECT_EQ(cohort.stored_for_interval(1), 1u);  // only the late forgery
}

TEST(Cohort, MembersFollowTheConfiguredBufferPolicy) {
  // Members run the sentinel's kernel under the same policy: with
  // naive-drop, a forged burst ahead of the authentic copy fills every
  // slot for every member, exactly as it does for the sentinel.
  fleet::CohortConfig config = cohort_config(16, 5);
  config.dap.policy = protocol::BufferPolicy::kNaiveDrop;
  protocol::DapSender sender(config.dap, common::Rng(1).bytes(16));
  fleet::ReceiverCohort cohort(config, sender.chain().commitment());
  sim::FloodingForger forger(config.dap.sender_id, config.dap.mac_size,
                             common::Rng(77));

  const sim::SimTime t = announce_time(config.dap, 1);
  for (std::size_t n = 0; n < config.dap.buffers; ++n) {
    cohort.receive_announce(forger.forge(1), t);
  }
  cohort.receive_announce(sender.announce(1, common::bytes_of("m")), t);
  cohort.enqueue_reveal(sender.reveal(1));
  const auto outcomes = cohort.drain(drain_time(config.dap, 1));
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].members_authenticated, 0u);
  EXPECT_FALSE(outcomes[0].sentinel_authenticated);
}

TEST(Cohort, DrainIsBitwiseIdenticalAcrossThreadCounts) {
  const auto run = [](std::size_t threads) {
    ThreadGuard guard(threads);
    const fleet::CohortConfig config = cohort_config(128, 9);
    protocol::DapSender sender(config.dap, common::Rng(1).bytes(16));
    fleet::ReceiverCohort cohort(config, sender.chain().commitment());
    sim::FloodingForger forger(config.dap.sender_id, config.dap.mac_size,
                               common::Rng(77));
    std::vector<std::uint64_t> trace;
    for (std::uint32_t i = 1; i <= 4; ++i) {
      const sim::SimTime t = announce_time(config.dap, i);
      cohort.receive_announce(sender.announce(i, common::bytes_of("m")), t);
      for (int n = 0; n < 11; ++n) cohort.receive_announce(forger.forge(i), t);
      cohort.enqueue_reveal(sender.reveal(i));
      for (const auto& outcome : cohort.drain(drain_time(config.dap, i))) {
        trace.push_back(outcome.members_authenticated);
        trace.push_back(outcome.sentinel_authenticated ? 1 : 0);
      }
      trace.push_back(cohort.stats().stored_records);
    }
    trace.push_back(cohort.stats().member_auths);
    trace.push_back(cohort.stats().member_auth_misses);
    trace.push_back(cohort.stats().stored_records_peak);
    return trace;
  };
  const auto serial = run(1);
  EXPECT_EQ(run(4), serial);
  EXPECT_EQ(run(7), serial);
}

TEST(Cohort, DrainOutcomesCarryRevealVerdicts) {
  const fleet::CohortConfig config = cohort_config(8, 5);
  protocol::DapSender sender(config.dap, common::Rng(1).bytes(16));
  fleet::ReceiverCohort cohort(config, sender.chain().commitment());
  sim::KeyGuessForger key_forger(config.dap.sender_id, config.dap.key_size,
                                 common::Rng(78));

  const sim::SimTime t = announce_time(config.dap, 1);
  cohort.receive_announce(sender.announce(1, common::bytes_of("m")), t);
  cohort.enqueue_reveal(sender.reveal(1));
  cohort.enqueue_reveal(key_forger.forge_reveal(1, common::bytes_of("F")));
  const auto outcomes = cohort.drain(drain_time(config.dap, 1));
  ASSERT_EQ(outcomes.size(), 2u);
  // The authentic reveal authenticates; the guessed key is rejected at
  // weak authentication — and the verdict names the reject reason so
  // verify spans can carry it.
  EXPECT_EQ(outcomes[0].verdict, tesla::RevealVerdict::kAccepted);
  EXPECT_EQ(outcomes[1].verdict, tesla::RevealVerdict::kWeakAuthFail);
  EXPECT_FALSE(outcomes[1].sentinel_authenticated);
}

TEST(Cohort, RejectsZeroMembers) {
  const fleet::CohortConfig config = cohort_config(0, 5);
  protocol::DapSender sender(cohort_dap_config(), common::Rng(1).bytes(16));
  EXPECT_THROW(fleet::ReceiverCohort(config, sender.chain().commitment()),
               std::invalid_argument);
}

// -------------------------------------------------------------- fleet sim

fleet::ScenarioSpec small_tree_spec() {
  fleet::ScenarioSpec spec;
  spec.name = "unit";
  spec.seed = 21;
  spec.kind = fleet::TopologyKind::kTree;
  spec.depth = 2;
  spec.fanout = 2;
  spec.members_per_cohort = 5;
  spec.intervals = 3;
  spec.interval_us = 200 * sim::kMillisecond;
  return spec;
}

TEST(FleetSim, CleanTreeAuthenticatesEveryMemberEveryInterval) {
  fleet::FleetSim sim(small_tree_spec());
  const fleet::FleetReport report = sim.run();
  EXPECT_EQ(report.cohort_count, 6u);
  EXPECT_EQ(report.total_members, 30u);
  EXPECT_EQ(report.announces_sent, 3u);
  EXPECT_EQ(report.member_auths, 3u * 6u * 4u);
  EXPECT_EQ(report.sentinel_auths, 3u * 6u);
  EXPECT_DOUBLE_EQ(report.auth_rate, 1.0);
  EXPECT_TRUE(report.zero_forged());
  EXPECT_EQ(report.announces_unsafe, 0u);
}

TEST(FleetSim, ReportIsIdenticalAcrossThreadCounts) {
  const auto run = [](std::size_t threads) {
    ThreadGuard guard(threads);
    fleet::ScenarioSpec spec = small_tree_spec();
    spec.members_per_cohort = 50;
    spec.forged_fraction = 0.8;
    fleet::FleetSim sim(spec);
    return sim.run();
  };
  const fleet::FleetReport a = run(1);
  const fleet::FleetReport b = run(4);
  EXPECT_EQ(a.member_auths, b.member_auths);
  EXPECT_EQ(a.sentinel_auths, b.sentinel_auths);
  EXPECT_EQ(a.forged_accepted, b.forged_accepted);
  EXPECT_EQ(a.forged_announces_sent, b.forged_announces_sent);
  EXPECT_EQ(a.weak_auth_failures, b.weak_auth_failures);
  EXPECT_EQ(a.stored_records_peak, b.stored_records_peak);
  EXPECT_EQ(a.total_bits, b.total_bits);
  EXPECT_EQ(a.auth_rate, b.auth_rate);
  EXPECT_EQ(a.forged_accepted, 0u);
}

TEST(FleetSim, FloodedFleetNeverAcceptsForgeries) {
  fleet::ScenarioSpec spec = small_tree_spec();
  spec.members_per_cohort = 20;
  spec.forged_fraction = 0.9;
  fleet::FleetSim sim(spec);
  const fleet::FleetReport report = sim.run();
  EXPECT_GT(report.forged_announces_sent, 0u);
  EXPECT_GT(report.forged_reveals_sent, 0u);
  EXPECT_TRUE(report.zero_forged());
  EXPECT_GT(report.weak_auth_failures, 0u);
  // The flood degrades availability, never integrity.
  EXPECT_LT(report.auth_rate, 1.0);
  EXPECT_GT(report.auth_rate, 0.0);
}

TEST(FleetSim, CohortPlacementFollowsSpec) {
  fleet::ScenarioSpec spec = small_tree_spec();
  spec.cohorts_at_leaves_only = true;
  fleet::FleetSim sim(spec);
  const fleet::FleetReport report = sim.run();
  EXPECT_EQ(report.cohort_count, 4u);  // the 4 leaves of the depth-2 tree
  EXPECT_EQ(sim.cohort_at(0), nullptr);
  EXPECT_EQ(sim.cohort_at(1), nullptr);  // interior relay
  EXPECT_NE(sim.cohort_at(3), nullptr);
  EXPECT_DOUBLE_EQ(report.auth_rate, 1.0);
}

TEST(FleetSim, FactoriesLockAfterRun) {
  // run() itself is single-shot by DAP_REQUIRE contract (abort, not an
  // exception — not exercisable in-process); the factory setters still
  // throw so misuse in test harnesses stays catchable.
  fleet::FleetSim sim(small_tree_spec());
  (void)sim.run();
  EXPECT_THROW(sim.set_channel_factory([](std::uint32_t, std::uint32_t) {
    return std::make_unique<sim::PerfectChannel>();
  }),
               std::logic_error);
  EXPECT_THROW(sim.set_latency_factory([](std::uint32_t, std::uint32_t) {
    return std::make_unique<sim::FixedLatency>(100);
  }),
               std::logic_error);
}

TEST(FleetSim, RollupFeedsPerDepthRegistryCounters) {
  auto& reg = obs::Registry::global();
  const auto counter_value = [&reg](const char* name) {
    const std::uint64_t* v = reg.find_counter(name);
    return v == nullptr ? 0 : *v;
  };
  const std::uint64_t d1_before = counter_value("fleet.d1.announces_in");
  const std::uint64_t d2_before = counter_value("fleet.d2.announces_in");
  const std::uint64_t members_before = counter_value("fleet.members");

  fleet::ScenarioSpec spec = small_tree_spec();
  spec.kind = fleet::TopologyKind::kTree;
  spec.depth = 2;
  spec.fanout = 1;  // chain 0 -> 1 -> 2: one node per depth
  fleet::FleetSim sim(spec);
  const fleet::FleetReport report = sim.run();

  EXPECT_EQ(counter_value("fleet.d1.announces_in") - d1_before, 3u);
  EXPECT_EQ(counter_value("fleet.d2.announces_in") - d2_before, 3u);
  EXPECT_EQ(counter_value("fleet.members") - members_before,
            report.total_members);
  const obs::LatencyHistogram* hops =
      reg.find_histogram("fleet.d2.hop_latency_us");
  ASSERT_NE(hops, nullptr);
  // Two 1 ms hops to depth 2.
  EXPECT_GE(hops->max(), 2000.0);
}

// ------------------------------------------------- causal tracing & snapshots

// Installs a private registry + tracer as the calling thread's globals
// for one test body (the same isolation benches use), so span and
// snapshot assertions see only this sim's telemetry.
class ObsOverrideGuard {
 public:
  explicit ObsOverrideGuard(std::size_t trace_capacity)
      : tracer_(trace_capacity),
        prev_registry_(obs::Registry::set_thread_override(&registry_)),
        prev_tracer_(obs::Tracer::set_thread_override(&tracer_)) {
    tracer_.enable(true);
  }
  ~ObsOverrideGuard() {
    obs::Registry::set_thread_override(prev_registry_);
    obs::Tracer::set_thread_override(prev_tracer_);
  }
  obs::Registry& registry() { return registry_; }
  obs::Tracer& tracer() { return tracer_; }

 private:
  obs::Registry registry_;
  obs::Tracer tracer_;
  obs::Registry* prev_registry_;
  obs::Tracer* prev_tracer_;
};

TEST(FleetSim, VerifySpansLinkBackToAnnounceAcrossTwoHops) {
  const ThreadGuard threads(1);
  ObsOverrideGuard obs_guard(1 << 12);
  fleet::ScenarioSpec spec = small_tree_spec();
  spec.depth = 2;
  spec.fanout = 1;  // chain 0 -> 1 -> 2: verify at node 2 is two hops out
  fleet::FleetSim sim(spec);
  (void)sim.run();

  const auto spans = obs_guard.tracer().span_snapshot();
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(obs_guard.tracer().spans_dropped(), 0u);
  std::map<std::uint64_t, const obs::SpanEvent*> by_uid;
  for (const auto& span : spans) by_uid[span.uid] = &span;

  // Every authentic verify span's parent walk must reach the root
  // announce_send; the one at node 2 passes two relay hops on the way.
  bool found_two_hop_chain = false;
  for (const auto& span : spans) {
    if (span.kind != obs::SpanKind::kVerify ||
        span.tag != obs::SpanTag::kAuthOk) {
      continue;
    }
    std::size_t relay_hops = 0;
    const obs::SpanEvent* at = &span;
    while (at->parent != 0) {
      const auto it = by_uid.find(at->parent);
      ASSERT_NE(it, by_uid.end()) << "dangling parent uid " << at->parent;
      at = it->second;
      EXPECT_EQ(at->trace, span.trace) << "parent walk left the trace";
      EXPECT_LE(at->t_begin, span.t_begin);
      if (at->kind == obs::SpanKind::kRelayHop) ++relay_hops;
    }
    EXPECT_EQ(at->kind, obs::SpanKind::kAnnounceSend);
    if (span.node == 2 && relay_hops >= 2) found_two_hop_chain = true;
  }
  EXPECT_TRUE(found_two_hop_chain)
      << "no verify span at node 2 walked back through both relay hops";

  // One trace id per interval, shared across the whole causal chain.
  std::set<std::uint64_t> traces;
  for (const auto& span : spans) traces.insert(span.trace);
  EXPECT_EQ(traces.size(), static_cast<std::size_t>(spec.intervals));
}

TEST(FleetSim, ForgedRevealsTagVerifySpansWithRejectReason) {
  const ThreadGuard threads(1);
  ObsOverrideGuard obs_guard(1 << 14);
  fleet::ScenarioSpec spec = small_tree_spec();
  spec.members_per_cohort = 10;
  spec.forged_fraction = 0.9;
  fleet::FleetSim sim(spec);
  const fleet::FleetReport report = sim.run();
  ASSERT_GT(report.forged_reveals_sent, 0u);

  // Reject tags cover two populations: forged reveals (no authentic
  // causal predecessor, so root-parented) and authentic reveals whose
  // records the flood evicted (still linked to their announce chain).
  std::size_t rejects = 0;
  std::size_t forged_rejects = 0;
  for (const auto& span : obs_guard.tracer().span_snapshot()) {
    if (span.kind != obs::SpanKind::kVerify) continue;
    if (span.tag == obs::SpanTag::kWeakAuthFail ||
        span.tag == obs::SpanTag::kNoRecord) {
      ++rejects;
      if (span.parent == 0) ++forged_rejects;
    } else if (span.tag == obs::SpanTag::kAuthOk) {
      // An accepted verify always has an authentic predecessor to link.
      EXPECT_NE(span.parent, 0u);
    }
  }
  EXPECT_GT(rejects, 0u) << "no verify span carries a reject reason";
  EXPECT_GT(forged_rejects, 0u)
      << "no root-parented (forged) verify span was rejected";
}

TEST(FleetSim, SnapshotterSamplesEveryIntervalPlusFinal) {
  const ThreadGuard threads(1);
  ObsOverrideGuard obs_guard(1 << 10);
  fleet::ScenarioSpec spec = small_tree_spec();
  fleet::FleetSim sim(spec);
  obs::Snapshotter snap(spec.id(), spec.interval_us);
  sim.set_snapshotter(&snap);
  (void)sim.run();

  // One sample per interval boundary the drain sweep crosses, plus the
  // unconditional end-of-run sample from rollup.
  EXPECT_GE(snap.samples(), static_cast<std::size_t>(spec.intervals));
  const std::string stream = snap.stream();
  EXPECT_NE(stream.find("\"schema\":\"dap.snapshots.v1\""),
            std::string::npos);
  EXPECT_NE(stream.find("\"fleet.announces_sent\":3"), std::string::npos);
  EXPECT_NE(stream.find("\"fleet.auths\""), std::string::npos);

  // The live-flush deltas must sum to the same totals the old end-only
  // rollup produced: the final sample's counter equals the report's.
  const auto* sent =
      obs_guard.registry().find_counter("fleet.announces_sent");
  ASSERT_NE(sent, nullptr);
  EXPECT_EQ(*sent, 3u);
}

// ------------------------------------------- multi-hop fault composition

TEST(FleetSim, DuplicatesMultiplyAcrossHopsWithoutDedup) {
  // Chain 0 -> 1 -> 2 with every hop duplicating every frame: copies
  // multiply hop over hop (2x then 4x) rather than resetting per hop.
  fleet::ScenarioSpec spec = small_tree_spec();
  spec.depth = 2;
  spec.fanout = 1;
  spec.relay_dedup = false;
  fleet::FleetSim sim(spec);
  sim.set_channel_factory([](std::uint32_t, std::uint32_t) {
    return std::make_unique<sim::DuplicateChannel>(
        std::make_unique<sim::PerfectChannel>(), 1.0);
  });
  const fleet::FleetReport report = sim.run();
  // 3 announces + 3 reveals leave the root.
  EXPECT_EQ(sim.node_traffic(1).packets_in, 12u);   // 6 x 2
  EXPECT_EQ(sim.node_traffic(1).forwarded, 12u);
  EXPECT_EQ(sim.node_traffic(2).packets_in, 24u);   // 6 x 2 x 2
  EXPECT_EQ(report.dedup_dropped, 0u);
  EXPECT_TRUE(report.zero_forged());
}

TEST(FleetSim, RelayDedupStopsDuplicateAmplification) {
  fleet::ScenarioSpec spec = small_tree_spec();
  spec.depth = 2;
  spec.fanout = 1;
  spec.relay_dedup = true;
  fleet::FleetSim sim(spec);
  sim.set_channel_factory([](std::uint32_t, std::uint32_t) {
    return std::make_unique<sim::DuplicateChannel>(
        std::make_unique<sim::PerfectChannel>(), 1.0);
  });
  const fleet::FleetReport report = sim.run();
  // Each relay forwards each distinct packet once, so amplification is
  // capped at the per-hop factor instead of compounding.
  EXPECT_EQ(sim.node_traffic(1).packets_in, 12u);
  EXPECT_EQ(sim.node_traffic(1).deduped, 6u);
  EXPECT_EQ(sim.node_traffic(1).forwarded, 6u);
  EXPECT_EQ(sim.node_traffic(2).packets_in, 12u);
  EXPECT_EQ(sim.node_traffic(2).deduped, 6u);
  EXPECT_EQ(report.dedup_dropped, 12u);
  // With duplicates suppressed at relays, every member still
  // authenticates every interval exactly once.
  EXPECT_DOUBLE_EQ(report.auth_rate, 1.0);
}

TEST(FleetSim, BlackoutOnOneHopComposesWithCleanHops) {
  // Chain 0 -> 1 -> 2; hop (0,1) blacks out around interval 2's
  // announce. Both cohorts lose exactly that interval (node 2 sits
  // behind the faulted hop), and every other interval authenticates.
  fleet::ScenarioSpec spec = small_tree_spec();
  spec.depth = 2;
  spec.fanout = 1;
  spec.members_per_cohort = 5;
  fleet::FleetSim sim(spec);
  auto schedule = std::make_shared<sim::FaultSchedule>();
  // Interval 2 spans [200ms, 400ms); its announce leaves at 300ms.
  schedule->add_window(290 * sim::kMillisecond, 310 * sim::kMillisecond);
  sim.set_channel_factory(
      [&sim, schedule](std::uint32_t from, std::uint32_t) {
        std::unique_ptr<sim::Channel> channel =
            std::make_unique<sim::PerfectChannel>();
        if (from == 0) {
          channel = std::make_unique<sim::BlackoutChannel>(
              std::move(channel), schedule, sim.queue());
        }
        return channel;
      });
  const fleet::FleetReport report = sim.run();
  // One of six root broadcasts (3 announces + 3 reveals) was dropped on
  // the first hop; the second hop relays everything that survived.
  EXPECT_EQ(sim.node_traffic(1).packets_in, 5u);
  EXPECT_EQ(sim.node_traffic(2).packets_in, 5u);
  // 2 cohorts x 2 surviving intervals x 4 statistical members.
  EXPECT_EQ(report.member_auths, 2u * 2u * 4u);
  EXPECT_EQ(report.sentinel_auths, 2u * 2u);
  EXPECT_NEAR(report.auth_rate, 2.0 / 3.0, 1e-12);
  EXPECT_TRUE(report.zero_forged());
}

// --------------------------------- bounded guards & relay fault injection

TEST(FleetSim, GuardBoundsRelayMemoryUnderFlood) {
  // A hard flood used to grow every relay's dedup set without bound;
  // with the guard, peak per-relay state is capped at the configured
  // capacity and the overflow surfaces as eviction counts instead.
  fleet::ScenarioSpec spec = small_tree_spec();
  spec.intervals = 5;
  spec.members_per_cohort = 10;
  spec.forged_fraction = 0.9;  // 9 forged copies per authentic announce
  spec.guard.capacity = 16;
  fleet::FleetSim sim(spec);
  const fleet::FleetReport report = sim.run();
  EXPECT_EQ(report.guard_capacity, 16u);
  EXPECT_LE(report.guard_peak_entries, 16u);
  EXPECT_GT(report.guard_evicted, 0u);
  EXPECT_TRUE(report.zero_forged());
  EXPECT_GT(report.auth_rate, 0.0);
}

TEST(FleetSim, DegradedRelayBudgetShedsFloodNotForgedAcceptance) {
  // Chain 0 -> 1 -> 2 with a tight bandwidth budget on relay 1: the
  // flood is shed at that hop instead of being forwarded downstream,
  // and integrity is untouched.
  fleet::ScenarioSpec spec = small_tree_spec();
  spec.depth = 2;
  spec.fanout = 1;
  spec.intervals = 5;
  spec.forged_fraction = 0.9;
  spec.guard.burst_bits = 512.0;  // a couple of frames of headroom
  spec.faults.degraded.push_back({1, 0.001});  // 1 kbit/s
  fleet::FleetSim sim(spec);
  const fleet::FleetReport report = sim.run();
  EXPECT_GT(sim.node_traffic(1).shed, 0u);
  EXPECT_EQ(sim.node_traffic(2).shed, 0u);  // only node 1 is degraded
  EXPECT_GT(report.guard_shed, 0u);
  // Downstream sees at most what the budget let through.
  EXPECT_LT(sim.node_traffic(2).packets_in, sim.node_traffic(1).packets_in);
  EXPECT_TRUE(report.zero_forged());
}

TEST(FleetSim, RelayCrashMidChainDesyncsAndReconverges) {
  // Chain 0 -> 1 -> 2. Node 1 crashes just before interval 2's
  // announce, stays deaf for two intervals, and reboots with its
  // oscillator 150 ms ahead. Downstream (node 2) recovers as soon as
  // traffic flows again; node 1's own cohort must first detect the
  // desync (streak of unsafe announces), run the resync handshake, and
  // only then resume authenticating — on the SAME chain anchor it held
  // before the crash.
  fleet::ScenarioSpec spec = small_tree_spec();
  spec.depth = 2;
  spec.fanout = 1;
  spec.intervals = 10;
  spec.members_per_cohort = 5;
  spec.faults.relay_crashes.push_back({1, 2, 2, 150 * sim::kMillisecond});
  fleet::FleetSim sim(spec);
  const fleet::FleetReport report = sim.run();

  EXPECT_EQ(report.relay_restarts, 1u);
  EXPECT_GT(report.dropped_while_down, 0u);
  EXPECT_TRUE(report.zero_forged());

  const fleet::ReceiverCohort* crashed = sim.cohort_at(1);
  ASSERT_NE(crashed, nullptr);
  EXPECT_EQ(crashed->stats().crash_restarts, 1u);
  // The skewed reboot shows up as a streak of unsafe announces. The
  // sentinel counts all three suspects; the cohort's shared check only
  // sees two, because the episode-opening third announce resolves the
  // handshake inside the sentinel before the cohort evaluates it.
  EXPECT_GE(crashed->stats().announces_unsafe, 2u);
  EXPECT_GE(crashed->sentinel().resync_stats().suspect_events, 3u);
  // The streak opens a desync episode and resolves via the handshake.
  EXPECT_GE(crashed->sentinel().resync_stats().desync_episodes, 1u);
  EXPECT_GE(crashed->sentinel().resync_stats().successes, 1u);
  // Chain anchor survived the crash: the sentinel authenticates again
  // after recovery (weak auth still walks back to its stored key).
  EXPECT_GE(crashed->stats().sentinel_auths, 2u);

  // Reconvergence bounds, measured from the fault horizon (interval 4).
  EXPECT_EQ(report.fault_clear_interval, 4u);
  ASSERT_EQ(report.reconverge_intervals.size(), 3u);
  // Depth 2 only had to wait for traffic: immediate reconvergence.
  EXPECT_LE(report.reconverge_intervals[2], 1u);
  // Depth 1 needed the full detect -> handshake -> recalibrate cycle.
  EXPECT_NE(report.reconverge_intervals[1], fleet::kNeverReconverged);
  EXPECT_LE(report.reconverge_intervals[1], 4u);
}

TEST(FleetSim, LinkPartitionHealsAndFleetRecovers) {
  // Chain 0 -> 1 -> 2; the (0,1) edge is partitioned for interval 2 and
  // heals at interval 3. Both cohorts lose the blocked traffic and
  // reconverge immediately once the edge is back.
  fleet::ScenarioSpec spec = small_tree_spec();
  spec.depth = 2;
  spec.fanout = 1;
  spec.intervals = 5;
  spec.members_per_cohort = 5;
  spec.faults.partitions.push_back({0, 1, 2, 3});
  fleet::FleetSim sim(spec);
  const fleet::FleetReport report = sim.run();
  // Interval 1's reveal (start(2) + interval/8) and interval 2's
  // announce fall inside the window: 10 root broadcasts, 2 blocked.
  EXPECT_EQ(sim.node_traffic(1).packets_in, 8u);
  EXPECT_EQ(report.relay_restarts, 0u);
  EXPECT_EQ(report.fault_clear_interval, 3u);
  ASSERT_EQ(report.reconverge_intervals.size(), 3u);
  EXPECT_EQ(report.reconverge_intervals[1], 0u);
  EXPECT_EQ(report.reconverge_intervals[2], 0u);
  // Intervals 3..5 authenticate fully at both cohorts.
  EXPECT_GE(report.sentinel_auths, 2u * 3u);
  EXPECT_TRUE(report.zero_forged());
}

TEST(FleetSim, ChaosReportIsIdenticalAcrossThreadCounts) {
  // The full fault mix — crash + reboot skew, healing partition,
  // degraded budget, flood — must stay bitwise deterministic at any
  // DAP_THREADS, like the clean fleet.
  const auto run = [](std::size_t threads) {
    ThreadGuard guard(threads);
    fleet::ScenarioSpec spec = small_tree_spec();
    spec.depth = 2;
    spec.fanout = 2;
    spec.intervals = 8;
    spec.members_per_cohort = 25;
    spec.forged_fraction = 0.6;
    spec.guard.capacity = 64;
    spec.guard.burst_bits = 8192.0;
    spec.faults.relay_crashes.push_back({1, 2, 1, 150 * sim::kMillisecond});
    spec.faults.partitions.push_back({0, 2, 3, 4});
    spec.faults.degraded.push_back({2, 0.05});
    fleet::FleetSim sim(spec);
    return sim.run();
  };
  const fleet::FleetReport a = run(1);
  const fleet::FleetReport b = run(4);
  EXPECT_EQ(a.member_auths, b.member_auths);
  EXPECT_EQ(a.sentinel_auths, b.sentinel_auths);
  EXPECT_EQ(a.forged_accepted, b.forged_accepted);
  EXPECT_EQ(a.guard_evicted, b.guard_evicted);
  EXPECT_EQ(a.guard_shed, b.guard_shed);
  EXPECT_EQ(a.guard_false_drops, b.guard_false_drops);
  EXPECT_EQ(a.guard_peak_entries, b.guard_peak_entries);
  EXPECT_EQ(a.relay_restarts, b.relay_restarts);
  EXPECT_EQ(a.dropped_while_down, b.dropped_while_down);
  EXPECT_EQ(a.reconverge_intervals, b.reconverge_intervals);
  EXPECT_EQ(a.total_bits, b.total_bits);
  EXPECT_EQ(a.forged_accepted, 0u);
}

TEST(FleetSim, GuardCountersReachRegistry) {
  auto& reg = obs::Registry::global();
  const auto counter_value = [&reg](const char* name) {
    const std::uint64_t* v = reg.find_counter(name);
    return v == nullptr ? 0 : *v;
  };
  const std::uint64_t evicted_before = counter_value("fleet.guard.evicted");
  const std::uint64_t shed_before = counter_value("fleet.guard.shed");
  const std::uint64_t restarts_before = counter_value("fleet.relay_restarts");
  const std::uint64_t d1_shed_before = counter_value("fleet.d1.guard_shed");

  fleet::ScenarioSpec spec = small_tree_spec();
  spec.depth = 2;
  spec.fanout = 1;
  spec.intervals = 5;
  spec.forged_fraction = 0.9;
  spec.guard.capacity = 8;
  spec.guard.burst_bits = 4096.0;
  spec.faults.relay_crashes.push_back({2, 2, 1, 0});
  spec.faults.degraded.push_back({1, 0.01});
  fleet::FleetSim sim(spec);
  const fleet::FleetReport report = sim.run();

  EXPECT_EQ(counter_value("fleet.guard.evicted") - evicted_before,
            report.guard_evicted);
  EXPECT_EQ(counter_value("fleet.guard.shed") - shed_before,
            report.guard_shed);
  EXPECT_EQ(counter_value("fleet.relay_restarts") - restarts_before,
            report.relay_restarts);
  // Per-depth split: the only budgeted relay sits at depth 1, so the
  // whole shed count lands in its bucket.
  EXPECT_EQ(counter_value("fleet.d1.guard_shed") - d1_shed_before,
            report.guard_shed);
  const double* peak = reg.find_gauge("fleet.guard.peak_entries");
  ASSERT_NE(peak, nullptr);
  EXPECT_LE(*peak, static_cast<double>(report.guard_capacity));
}

}  // namespace
}  // namespace dap
