#pragma once
// Receiver cohorts: N statistically-identical DAP receivers behind one
// topology leaf, cheap enough that 10^5..10^6 of them fit in one run.
//
// Member 0 is a *sentinel*: a full protocol::DapReceiver that executes
// every byte of Algorithm 2 (μMAC re-MAC, reservoir buffers, batched
// reveal verification via drain_pending_batch). The remaining N-1
// members are modelled at reservoir *identity* level: each member keeps
// m slots holding the arrival index of the announce it stored, and the
// reservoir decisions (keep the k-th copy with probability m/k, evict a
// uniform slot) are replayed with stateless SplitMix64 draws keyed on
// (cohort seed, member, interval, offer). The per-member streams are
// therefore independent, reproducible, and — crucially — independent of
// both thread count and replay batching, so a fleet run is bitwise
// identical at any DAP_THREADS.
//
// The identity-level model treats two distinct announce MACs as distinct
// records, i.e. it neglects 24-bit μMAC collisions between a forged MAC
// and the authentic one (probability ~2^-24 per stored forged record;
// the sentinel member keeps full crypto fidelity as a cross-check).
// Strong authentication for a statistical member is then "some stored
// slot holds an announce whose MAC equals MAC_{K_i}(M_i)", evaluated
// with a constant-time compare against the recomputed MAC, and a match
// consumes the slot exactly like the sentinel's buffer does. Members run
// the same reservoir kernel as the sentinel (tesla/buffer.h), fed by the
// stateless draw source instead of an Rng.
//
// Reservoir replay is *lazy*: announces only append to the round's
// arrival list; member slots are brought up to date at drain time with
// one parallel_for over members (index-addressed state only), which is
// where the 10^5-member cost is paid and sharded. Rounds live in the
// record window DapReceiver uses (tesla/buffer.h): d + 2 rows, because
// the cohort prunes after its drain rather than at admission.

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "dap/dap.h"
#include "sim/clock_model.h"
#include "sim/time.h"
#include "tesla/buffer.h"
#include "tesla/timesync.h"
#include "wire/packet.h"

namespace dap::fleet {

struct CohortConfig {
  /// Total receivers represented, sentinel included (>= 1).
  std::size_t members = 1;
  /// Protocol parameters shared by every member (buffers = m, disclosure
  /// delay, schedule, MAC sizes, sender id).
  protocol::DapConfig dap{};
  /// Root of the cohort's per-member randomness; distinct cohorts must
  /// use distinct seeds.
  std::uint64_t seed = 1;
  /// The leaf's oscillator; all members share it (they are co-located
  /// behind the same hop — per-member skew is below the model's
  /// resolution).
  sim::LooseClock clock{0, 5 * sim::kMillisecond};
};

struct CohortStats {
  std::uint64_t announces_received = 0;
  std::uint64_t announces_unsafe = 0;  // failed the loose-time safety check
  std::uint64_t reveals_received = 0;
  std::uint64_t weak_auth_failures = 0;
  /// Strong-auth successes across statistical members (sentinel excluded).
  std::uint64_t member_auths = 0;
  std::uint64_t sentinel_auths = 0;
  /// Reveals that weak-authenticated but matched no slot of a given
  /// member, summed over members (the memory-DoS loss signal).
  std::uint64_t member_auth_misses = 0;
  /// MAC keys F'(K_i) derived by the identity-level core (once per
  /// interval per drain — the batching KPI).
  std::uint64_t mac_key_derivations = 0;
  /// Statistical-member records stored after the latest drain, and the
  /// maximum over drains (occupancy is sampled at drains because replay
  /// is lazy).
  std::uint64_t stored_records = 0;
  std::uint64_t stored_records_peak = 0;
  /// Crash/restart cycles injected into this cohort.
  std::uint64_t crash_restarts = 0;
  // ---- Cooperative verification (install_hints) -------------------------
  /// Chain walks skipped because a neighbor's invalid-verdict hint
  /// covered the reveal (and the audit draw did not select it).
  std::uint64_t walks_skipped = 0;
  /// Hinted reveals the deterministic audit draw re-walked locally.
  std::uint64_t hint_audits = 0;
  /// Audited hints whose local walk contradicted them (the hint claimed
  /// invalid, the walk said valid) — poisoned gossip, source distrusted.
  std::uint64_t poisoned_hints = 0;
};

/// Verdict hint gossiped from an already-drained cohort: "a reveal for
/// `interval` carrying exactly `key` failed weak authentication at
/// `source`". Only *invalid* verdicts are ever shared — a remote "valid"
/// claim could smuggle a forged key past the chain walk, while trusting
/// a remote "invalid" claim can at worst suppress a genuine reveal (a
/// liveness loss the audit fraction bounds), never admit a forged one.
struct RevealHint {
  std::uint32_t interval = 0;
  common::Bytes key;
  /// Topology node id of the cohort whose walk produced the verdict.
  std::uint32_t source = 0;
};

/// One weak-auth chain walk the latest drain actually performed (i.e.
/// was not skipped under a hint); harvested by cooperative-verification
/// coordinators to gossip the invalid verdicts onward.
struct WalkResult {
  std::uint32_t interval = 0;
  common::Bytes key;
  bool weak_valid = false;
};

/// Outcome of one reveal processed by drain(), in queue order.
struct RevealOutcome {
  std::uint32_t interval = 0;
  common::Bytes message;
  /// Statistical members whose reservoir still held the matching
  /// announce (out of members() - 1).
  std::uint64_t members_authenticated = 0;
  bool sentinel_authenticated = false;
  /// The sentinel's verdict on this reveal (reject reason when it did
  /// not authenticate); feeds the verify-span tags in the fleet tracer.
  tesla::RevealVerdict verdict = tesla::RevealVerdict::kAccepted;
};

class ReceiverCohort {
 public:
  /// `commitment` is the authenticated K_0 shared by all members.
  /// Throws std::invalid_argument for zero members.
  ReceiverCohort(const CohortConfig& config, common::Bytes commitment);

  /// Ingress for a MAC announcement at true time `true_now`: applies the
  /// cohort clock, gates on the TESLA safety check, appends to the
  /// round's arrival list, and forwards to the sentinel.
  void receive_announce(const wire::MacAnnounce& packet,
                        sim::SimTime true_now);

  /// Queues a reveal for the next drain (sentinel's queue + cohort core).
  void enqueue_reveal(const wire::MessageReveal& packet);

  /// Replays pending reservoir offers for every member, then verifies
  /// every queued reveal in arrival order (weak auth once per reveal,
  /// MAC key derivation once per interval per drain). Returns one
  /// outcome per queued reveal. Rounds whose key is long public are
  /// pruned afterwards.
  std::vector<RevealOutcome> drain(sim::SimTime true_now);

  // ---- Fault injection & recovery ---------------------------------------

  /// Crash/restart at true time `true_now`: volatile state is lost on
  /// every member (sentinel record buffers + calibration via
  /// DapReceiver::crash_restart, statistical reservoirs and queued
  /// reveals here), while the newest authenticated chain key survives as
  /// the persistent anchor. `reboot_skew_us` models the oscillator
  /// coming back AHEAD by that much (an RTC that lost time while down) —
  /// a forward-only step, accumulated across crashes and never snapped
  /// back (a backward correction would void the loose-sync bound); only
  /// a fresh timesync calibration restores the safety check.
  void crash_restart(sim::SimTime true_now, sim::SimTime reboot_skew_us = 0);

  /// Wires desync recovery: the sentinel's ResyncController drives a
  /// real TimeSyncClient/Responder handshake (one deterministic
  /// transport per cohort, `handshake_latency_us` per leg). When
  /// `transport_up` is given, attempts fail while it returns false (the
  /// relay is down or partitioned). A successful handshake's
  /// calibration is also adopted by the statistical members' shared
  /// safety check — the cohort-level analogue of installing it in the
  /// sentinel.
  void enable_resync(
      sim::SimTime handshake_latency_us,
      std::function<bool(sim::SimTime true_now)> transport_up = nullptr);

  /// The cohort oscillator's reading at true time `true_now`, including
  /// accumulated reboot skew.
  [[nodiscard]] sim::SimTime local_time(sim::SimTime true_now) const noexcept;

  [[nodiscard]] std::size_t members() const noexcept {
    return config_.members;
  }
  [[nodiscard]] const CohortStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const protocol::DapReceiver& sentinel() const noexcept {
    return sentinel_;
  }
  /// Statistical-member records currently stored for interval i
  /// (post-replay counts; test introspection).
  [[nodiscard]] std::uint64_t stored_for_interval(std::uint32_t i) const {
    const std::size_t row = window_.find(i);
    return row == Window::kNoRow ? 0 : window_.stored_in(row);
  }

  // ---- Cooperative verification -----------------------------------------

  /// Installs invalid-verdict hints for the NEXT drain (consumed by it).
  /// A pending reveal matching a hint (interval + exact key bytes) skips
  /// its weak-auth chain walk and is treated as a weak-auth failure —
  /// except that a deterministic `audit_fraction` of hinted reveals
  /// (drawn from `audit_seed`, reproducible at any thread count) is
  /// re-walked locally and the verdicts compared: a walk that
  /// contradicts its hint marks the hint's source as poisoned. The
  /// sentinel member still verifies everything, so cohort-level
  /// zero-forged accounting is unaffected by any hint.
  void install_hints(std::vector<RevealHint> hints, double audit_fraction,
                     std::uint64_t audit_seed);

  /// Chain walks the latest drain performed, in queue order (valid and
  /// invalid verdicts both — the coordinator shares only the invalid
  /// ones, or lies about the valid ones in poisoned mode).
  [[nodiscard]] const std::vector<WalkResult>& last_drain_walks()
      const noexcept {
    return last_walks_;
  }

  /// Source node ids of hints whose audit walk contradicted them
  /// (accumulated across drains).
  [[nodiscard]] const std::vector<std::uint32_t>& poisoned_sources()
      const noexcept {
    return poisoned_sources_;
  }

 private:
  using Window = tesla::RecordWindow<std::uint32_t>;

  /// Replays a row's offers [offers, macs.size()) for member `mi` using
  /// the stateless per-offer draws of the member's `round_seed` and the
  /// cohort's keep thresholds (grown past every offer beforehand).
  void replay_member(std::size_t row, std::uint64_t round_seed,
                     std::size_t mi);

  /// True time recovered from a local reading (inverts local_time).
  [[nodiscard]] sim::SimTime true_time_of(
      sim::SimTime local_now) const noexcept;

  CohortConfig config_;
  std::size_t stat_members_;  // members - 1 (sentinel excluded)
  /// Integer keep thresholds for m = config_.dap.buffers; each drain
  /// grows them (serially) past every offer its member pass replays.
  tesla::KeepThresholds keep_thresholds_;
  tesla::ChainAuthenticator auth_;
  protocol::DapReceiver sentinel_;
  /// Per row: each statistical member's kept arrival indices into macs_,
  /// and (macs_) the row's announce MACs in arrival order.
  Window window_;
  std::vector<std::vector<common::InlineBytes<32>>> macs_;
  std::vector<wire::MessageReveal> pending_;
  CohortStats stats_;

  /// Cooperative-verification state: hints armed for the next drain
  /// (cleared by it), the walks that drain performed, and every hint
  /// source an audit has caught lying.
  std::vector<RevealHint> hints_;
  double audit_fraction_ = 0.0;
  std::uint64_t audit_seed_ = 0;
  std::vector<WalkResult> last_walks_;
  std::vector<std::uint32_t> poisoned_sources_;

  /// Accumulated forward reboot skew (crash_restart); 0 in steady state.
  sim::SimTime skew_ = 0;
  /// Calibration adopted from the sentinel's last successful resync
  /// handshake; dropped on crash (volatile state).
  std::optional<tesla::SyncCalibration> calibration_;
  /// Resync transport (enable_resync); one handshake pair per cohort.
  std::optional<tesla::TimeSyncClient> sync_client_;
  std::optional<tesla::TimeSyncResponder> sync_responder_;
};

}  // namespace dap::fleet
