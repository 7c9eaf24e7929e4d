#include "fleet/scenario.h"

#include <cmath>
#include <stdexcept>

#include "common/csv.h"

namespace dap::fleet {

namespace {

/// Resource ceilings: a spec is a scenario description, not a resource
/// grant — validating one must never commit the process to huge
/// allocations before anyone decides to run it.
constexpr std::uint64_t kMaxNodes = 1ULL << 22;          // relay graph
constexpr std::uint64_t kMaxMembersPerCohort = 1ULL << 24;
constexpr std::uint64_t kMaxBuffers = 1ULL << 16;
constexpr std::uint64_t kMaxIntervals = 1ULL << 20;
constexpr std::size_t kMaxGuardCapacity = 1ULL << 22;

/// Overflow-safe estimate of the node count a topology spec implies.
double estimated_nodes(const ScenarioSpec& spec) {
  switch (spec.kind) {
    case TopologyKind::kTree: {
      if (spec.fanout <= 1) return static_cast<double>(spec.depth) + 1.0;
      const double f = static_cast<double>(spec.fanout);
      return (std::pow(f, static_cast<double>(spec.depth) + 1.0) - 1.0) /
             (f - 1.0);
    }
    case TopologyKind::kGrid:
      return static_cast<double>(spec.rows) *
                 static_cast<double>(spec.cols) + 1.0;
    case TopologyKind::kGossip:
      return static_cast<double>(spec.relays) + 1.0;
    case TopologyKind::kFlood:
      return static_cast<double>(spec.receivers) + 1.0;
  }
  return 0.0;
}

}  // namespace

std::uint32_t FaultSpec::last_clear_interval() const noexcept {
  std::uint32_t clear = 0;
  for (const RelayCrashSpec& crash : relay_crashes) {
    const std::uint64_t up = static_cast<std::uint64_t>(crash.at_interval) +
                             crash.downtime_intervals;
    if (up > clear) clear = static_cast<std::uint32_t>(up);
  }
  for (const LinkPartitionSpec& partition : partitions) {
    if (partition.until_interval > clear) clear = partition.until_interval;
  }
  return clear;
}

Topology ScenarioSpec::build_topology() const {
  switch (kind) {
    case TopologyKind::kTree:
      return tree_topology(depth, fanout);
    case TopologyKind::kGrid:
      return grid_topology(rows, cols);
    case TopologyKind::kGossip:
      return gossip_topology(relays, fanin, seed);
    case TopologyKind::kFlood:
      return flood_topology(receivers);
  }
  throw std::invalid_argument("ScenarioSpec: unknown topology kind");
}

std::string ScenarioSpec::id() const {
  std::string shape;
  switch (kind) {
    case TopologyKind::kTree:
      shape = "d" + std::to_string(depth) + "f" + std::to_string(fanout);
      break;
    case TopologyKind::kGrid:
      shape = std::to_string(rows) + "x" + std::to_string(cols);
      break;
    case TopologyKind::kGossip:
      shape = "n" + std::to_string(relays) + "k" + std::to_string(fanin);
      break;
    case TopologyKind::kFlood:
      shape = "n" + std::to_string(receivers);
      break;
  }
  return std::string(topology_kind_name(kind)) + "_" + shape + "_m" +
         std::to_string(members_per_cohort) + "_p" +
         common::format_number(forged_fraction) +
         (faults.empty() ? "" : "_chaos") +
         (strategy.adaptive.enabled ? "_adapt" : "") +
         (strategy.sybil.enabled ? "_sybil" : "") +
         (strategy.coop.enabled
              ? (strategy.coop.poisoned ? "_coop_poison" : "_coop")
              : "");
}

void ScenarioSpec::validate() const {
  if (members_per_cohort == 0 || members_per_cohort > kMaxMembersPerCohort) {
    throw std::invalid_argument(
        "ScenarioSpec: members_per_cohort must be in [1, 2^24]");
  }
  if (buffers == 0 || buffers > kMaxBuffers) {
    throw std::invalid_argument("ScenarioSpec: buffers must be in [1, 2^16]");
  }
  if (intervals == 0 || intervals > kMaxIntervals) {
    throw std::invalid_argument(
        "ScenarioSpec: intervals must be in [1, 2^20]");
  }
  if (interval_us == 0 ||
      static_cast<double>(interval_us) *
              (static_cast<double>(intervals) + 8.0) >
          9.0e18) {
    throw std::invalid_argument(
        "ScenarioSpec: interval_us out of range (run would overflow "
        "sim time)");
  }
  if (forged_fraction < 0.0 || forged_fraction >= 1.0) {
    throw std::invalid_argument(
        "ScenarioSpec: forged_fraction must be in [0, 1)");
  }
  if (hop.loss < 0.0 || hop.loss >= 1.0) {
    throw std::invalid_argument("ScenarioSpec: hop.loss must be in [0, 1)");
  }
  if (hop.duplicate_probability < 0.0 || hop.duplicate_probability > 1.0) {
    throw std::invalid_argument(
        "ScenarioSpec: hop.duplicate_probability must be in [0, 1]");
  }
  if (guard.capacity == 0 || guard.capacity > kMaxGuardCapacity ||
      (guard.capacity & (guard.capacity - 1)) != 0) {
    throw std::invalid_argument(
        "ScenarioSpec: guard.capacity must be a power of two in [1, 2^22]");
  }
  if (!std::isfinite(guard.budget_mbps) || guard.budget_mbps < 0.0) {
    throw std::invalid_argument(
        "ScenarioSpec: guard.budget_mbps must be finite and >= 0");
  }
  if (!std::isfinite(guard.burst_bits) || guard.burst_bits < 0.0) {
    throw std::invalid_argument(
        "ScenarioSpec: guard.burst_bits must be finite and >= 0");
  }
  // Resource ceiling BEFORE materializing the graph: the topology
  // builders allocate O(nodes).
  if (estimated_nodes(*this) > static_cast<double>(kMaxNodes)) {
    throw std::invalid_argument(
        "ScenarioSpec: topology implies more than 2^22 nodes");
  }
  const Topology topo = build_topology();  // validates the shape itself
  const auto adjacency = topo.adjacency();
  for (const std::uint32_t a : attackers) {
    if (a >= topo.node_count) {
      throw std::invalid_argument("ScenarioSpec: attacker node out of range");
    }
    if (adjacency[a].empty()) {
      throw std::invalid_argument(
          "ScenarioSpec: attacker node has no out-edges to inject into");
    }
  }
  for (const RelayCrashSpec& crash : faults.relay_crashes) {
    if (crash.node == 0 || crash.node >= topo.node_count) {
      throw std::invalid_argument(
          "ScenarioSpec: relay_crashes node must be a non-root node");
    }
    if (crash.at_interval == 0 || crash.at_interval > intervals) {
      throw std::invalid_argument(
          "ScenarioSpec: relay_crashes at_interval must be in [1, "
          "intervals]");
    }
    if (crash.downtime_intervals == 0 ||
        crash.downtime_intervals > kMaxIntervals) {
      throw std::invalid_argument(
          "ScenarioSpec: relay_crashes downtime_intervals must be in [1, "
          "2^20]");
    }
    if (crash.reboot_skew_us >
        static_cast<sim::SimTime>(kMaxIntervals) * interval_us) {
      throw std::invalid_argument(
          "ScenarioSpec: relay_crashes reboot_skew_us out of range");
    }
  }
  for (const LinkPartitionSpec& partition : faults.partitions) {
    if (partition.from >= topo.node_count ||
        partition.to >= topo.node_count) {
      throw std::invalid_argument(
          "ScenarioSpec: partition endpoint out of range");
    }
    bool edge = false;
    for (const std::uint32_t to : adjacency[partition.from]) {
      if (to == partition.to) {
        edge = true;
        break;
      }
    }
    if (!edge) {
      throw std::invalid_argument(
          "ScenarioSpec: partition does not match a topology edge");
    }
    if (partition.from_interval == 0 ||
        partition.until_interval <= partition.from_interval) {
      throw std::invalid_argument(
          "ScenarioSpec: partition window must satisfy 1 <= from < until");
    }
  }
  if (strategy.adaptive.enabled) {
    if (!std::isfinite(strategy.adaptive.learning_rate) ||
        strategy.adaptive.learning_rate <= 0.0 ||
        strategy.adaptive.learning_rate > 1.0) {
      throw std::invalid_argument(
          "ScenarioSpec: strategy.adaptive.learning_rate must be in (0, 1]");
    }
    if (strategy.adaptive.initial_share <= 0.0 ||
        strategy.adaptive.initial_share >= 1.0) {
      throw std::invalid_argument(
          "ScenarioSpec: strategy.adaptive.initial_share must be in (0, 1)");
    }
    if (!std::isfinite(strategy.adaptive.reward) ||
        !std::isfinite(strategy.adaptive.cost) ||
        strategy.adaptive.cost <= 0.0 ||
        strategy.adaptive.reward <= strategy.adaptive.cost) {
      // Mirrors game::GameParams::validate (Ra > k1 > 0): the replicator
      // payoff only has the paper's structure under these signs.
      throw std::invalid_argument(
          "ScenarioSpec: strategy.adaptive requires reward > cost > 0");
    }
    if (forged_fraction <= 0.0) {
      throw std::invalid_argument(
          "ScenarioSpec: strategy.adaptive needs forged_fraction > 0 (it "
          "bounds the per-interval flood intensity)");
    }
  }
  if (strategy.sybil.enabled) {
    if (strategy.sybil.cohort == 0 || strategy.sybil.cohort > 64) {
      throw std::invalid_argument(
          "ScenarioSpec: strategy.sybil.cohort must be in [1, 64]");
    }
    if (strategy.sybil.reveal_stagger_us >= interval_us) {
      throw std::invalid_argument(
          "ScenarioSpec: strategy.sybil.reveal_stagger_us must be smaller "
          "than interval_us");
    }
  }
  if (strategy.coop.enabled) {
    if (!std::isfinite(strategy.coop.audit_fraction) ||
        strategy.coop.audit_fraction < 0.0 ||
        strategy.coop.audit_fraction > 1.0) {
      throw std::invalid_argument(
          "ScenarioSpec: strategy.coop.audit_fraction must be in [0, 1]");
    }
  } else if (strategy.coop.poisoned) {
    throw std::invalid_argument(
        "ScenarioSpec: strategy.coop.poisoned requires strategy.coop.enabled");
  }
  for (const DegradedRelaySpec& degraded : faults.degraded) {
    if (degraded.node >= topo.node_count) {
      throw std::invalid_argument(
          "ScenarioSpec: degraded node out of range");
    }
    if (!std::isfinite(degraded.budget_mbps) || degraded.budget_mbps <= 0.0) {
      throw std::invalid_argument(
          "ScenarioSpec: degraded budget_mbps must be finite and > 0");
    }
  }
}

}  // namespace dap::fleet
