#pragma once
// Chaos soak: seeded fault schedules driven through concurrent DAP and
// TESLA++ sessions over the broadcast medium.
//
// Each run wires `receivers` nodes, every one running both protocol
// stacks behind the same faulty link and the same (possibly faulty)
// oscillator, then scripts a fault window [fault_from, fault_until) in
// interval space while a flooding/forging adversary stays active the
// whole time. Two invariants are asserted by the harness on the report:
//
//   1. Safety: no forged message EVER authenticates, under any fault mix
//      (forged payloads are tagged so acceptance is detectable).
//   2. Liveness: every receiver authenticates fresh authentic traffic
//      within `reconverge_within` intervals after the faults clear.
//
// The adversary includes a *late-key* forger: once K_i is public it can
// compute the real MAC key, so only the receiver's loose-time safety
// check (plus the drift-allowance margin) stands between it and a clean
// forgery — exactly the failure mode clock faults try to open.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "fleet/fleet.h"
#include "fleet/scenario.h"
#include "sim/time.h"

namespace dap::analysis {

struct ChaosFaultMix {
  bool jitter = false;        // per-link delay jitter (reorders frames)
  bool duplication = false;   // frame duplication on every link
  bool blackout = false;      // total link outage over the fault window
  bool clock_drift = false;   // oscillator skew (fast and slow receivers)
  bool clock_step = false;    // forward clock step at the window start
  bool crash_restart = false; // receivers lose volatile state mid-window
  /// Timesync responder unreachable during the window: resync attempts
  /// fail, exercising backoff and the per-episode retry budget.
  bool resync_outage = false;
};

struct ChaosConfig {
  std::uint64_t seed = 1;
  std::size_t receivers = 3;
  std::size_t chain_length = 48;
  sim::SimTime interval = 200 * sim::kMillisecond;
  /// Forged MAC announces injected per interval (memory-DoS pressure).
  std::size_t forged_per_interval = 2;
  ChaosFaultMix mix{};
  /// Fault window in interval indices: [fault_from, fault_until).
  std::uint32_t fault_from = 12;
  std::uint32_t fault_until = 28;
  /// Liveness bound: every receiver must authenticate authentic traffic
  /// within this many intervals after the window closes.
  std::uint32_t reconverge_within = 12;
};

struct ChaosReceiverReport {
  std::uint64_t authenticated = 0;     // authentic messages accepted
  std::uint64_t forged_accepted = 0;   // MUST stay zero
  std::uint64_t resync_episodes = 0;
  std::uint64_t resync_attempts = 0;
  std::uint64_t resync_successes = 0;
  std::uint64_t budget_exhausted = 0;
  std::uint64_t admissions_shed = 0;
  std::uint64_t crash_restarts = 0;
  bool reconverged = false;
  /// Intervals from window close to the first post-fault authentication
  /// (0 when the receiver never reconverged).
  std::uint32_t reconverge_intervals = 0;
};

struct ChaosReport {
  std::vector<ChaosReceiverReport> dap;
  std::vector<ChaosReceiverReport> teslapp;
  std::uint64_t forged_accepted_total = 0;
  std::uint64_t duplicated_frames = 0;
  std::uint64_t total_intervals = 0;
  bool all_reconverged = false;
};

ChaosReport run_chaos_soak(const ChaosConfig& config);

/// Runs several independent soaks (typically one per fault mix) across
/// the parallel engine; slot i is run_chaos_soak(configs[i]), and every
/// run's telemetry merges into the caller's registry in slot order.
std::vector<ChaosReport> run_chaos_soaks(
    const std::vector<ChaosConfig>& configs);

/// The named fault mixes the soak suite iterates: each single-fault
/// scenario plus a combined one.
std::vector<std::pair<std::string, ChaosFaultMix>> standard_fault_mixes();

// ---- Fleet-level chaos: relay faults over multi-hop topologies --------
//
// The single-link soak above stresses one receiver stack; the fleet
// variant drives a whole ScenarioSpec — relay crash/restart, healing
// link partitions, degraded-relay budgets — through FleetSim and holds
// it to three invariants:
//
//   1. Safety: forged_accepted == 0, under every fault mix.
//   2. Bounded relays: guard_peak_entries <= guard_capacity however
//      hard the flood pushes (the O(capacity) relay data plane).
//   3. Liveness: every topology depth reconverges (all of its cohorts
//      sentinel-authenticate in the same interval again) within the
//      case's documented bound after the last fault clears.

struct FleetChaosCase {
  std::string label;
  fleet::ScenarioSpec spec;
  /// Per-depth reconvergence bound, in intervals past the fault
  /// horizon (spec.faults.last_clear_interval()).
  std::uint32_t reconverge_within = 6;
};

struct FleetChaosResult {
  std::string label;
  fleet::FleetReport report;
  bool zero_forged = false;
  bool memory_bounded = false;
  bool reconverged = false;
  [[nodiscard]] bool ok() const noexcept {
    return zero_forged && memory_bounded && reconverged;
  }
};

/// Runs one fleet chaos case and evaluates the three invariants. An
/// optional snapshotter samples the ambient registry at drain cadence
/// (it must outlive the call). Specs with strategy extensions engaged
/// are routed through strategy::run_scenario, so the adaptive attacker,
/// Sybil cohort, and cooperative verification all run — and are held to
/// the same safety bar as the relay-fault mixes.
FleetChaosResult run_fleet_chaos_case(const FleetChaosCase& chaos_case,
                                      obs::Snapshotter* snapshotter = nullptr);

/// The named relay-fault scenarios the fleet soak iterates: crash with
/// reboot skew, healing partition, degraded budget under flood, guard
/// saturation, and the combined mix. Smoke shrinks cohorts, not the
/// fault plans — every mix still runs.
std::vector<FleetChaosCase> standard_fleet_chaos_cases(bool smoke);

/// Strategy-adversary soak cases: the adaptive replicator attacker, a
/// Sybil cohort revealing a shared forged chain across relay hops,
/// cooperative verification under that Sybil flood, and the poisoned
/// gossip variant. None schedule relay faults (reconvergence is
/// trivially satisfied); the load-bearing invariants are zero forged
/// authentications and bounded relay memory under every adversary.
std::vector<FleetChaosCase> strategy_fleet_chaos_cases(bool smoke);

}  // namespace dap::analysis
