#pragma once
// DAP — the paper's DoS-Resistant Authentication Protocol (§IV,
// Algorithms 1 and 2).
//
// Broadcasting (Algorithm 1): in interval I_i the sender transmits only
// (MAC_i, i); one interval later it transmits (M_i, K_i, i).
//
// Authentication at receivers (Algorithm 2): on (MAC_i, i) at local
// interval x, discard if i + d < x (key already public); otherwise store
// the 24-bit re-MAC μMAC = MAC_{K_recv}(MAC_i) with the 32-bit index —
// a 56-bit record — in one of m buffers using reservoir selection
// (k-th copy kept with probability m/k, random slot replaced). On
// (M_i, K_i, i): weak authentication checks the key against the chain
// (h(K_i) = K_{i-1} generalized to a multi-step walk); strong
// authentication recomputes μMAC' = MAC_{K_recv}(MAC_{K_i}(M_i)) and
// accepts M_i iff some stored record matches. A reveal takes one path
// whether it arrives through receive() or a drain: receive() is a
// one-reveal drain that judges the key with ChainAuthenticator::accept
// where drain_pending_batch() uses accept_many.
//
// The buffer policy is pluggable (reservoir / naive-drop / always-replace)
// for ablation E9; the paper's protocol is the reservoir policy. The
// reservoir decision is drawn BEFORE the re-MAC, so a discarded copy
// costs no HMAC, and a kept record is one packed word (μMAC << 32 |
// interval) in the receiver's record window (tesla/buffer.h): d + 1 rows
// keyed by its own clock, (d + 1)·m records whatever an announce claims.

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "crypto/keychain.h"
#include "crypto/mac.h"
#include "obs/registry.h"
#include "sim/clock_model.h"
#include "tesla/buffer.h"
#include "tesla/chain_auth.h"
#include "tesla/resync.h"
#include "tesla/verdict.h"
#include "wire/packet.h"

namespace dap::protocol {

using BufferPolicy = tesla::BufferPolicy;

struct DapConfig {
  wire::NodeId sender_id = 1;
  std::size_t chain_length = 64;
  std::uint32_t disclosure_delay = 1;  // d: reveal follows one interval later
  std::size_t key_size = crypto::kChainKeySize;  // 80-bit chain keys
  std::size_t mac_size = crypto::kMacSize;       // 80-bit broadcast MAC
  std::size_t micro_mac_size = crypto::kMicroMacSize;  // 24-bit stored μMAC
  std::size_t buffers = 4;                       // m
  BufferPolicy policy = BufferPolicy::kReservoir;
  sim::IntervalSchedule schedule{0, sim::kSecond};
  /// Graceful degradation: cap on total stored records across all live
  /// rounds (0 = unlimited). At the cap a receiver sheds new admissions
  /// and halves the reservoir size m for rounds that have not started,
  /// restoring m once the pool drains below half the cap.
  std::size_t record_pool_limit = 0;
  /// Desync detection / timesync re-execution policy (disabled by
  /// default: zero behaviour change for existing deployments).
  tesla::ResyncConfig resync{};
};

class DapSender {
 public:
  DapSender(const DapConfig& config, common::ByteView seed);

  /// Algorithm 1 lines 1-4: (MAC_i, i) for interval i. May be called
  /// several times per interval with distinct messages (the P_{i,1..m}
  /// stream of Fig. 1); each message gets its own MAC/record.
  [[nodiscard]] wire::MacAnnounce announce(std::uint32_t i,
                                           common::ByteView message);

  /// Algorithm 1 line 6: (M_i, K_i, i), sent in interval i+1. `k` selects
  /// which of the interval's announced messages to reveal (0-based).
  /// Throws std::logic_error without a matching prior announce.
  [[nodiscard]] wire::MessageReveal reveal(std::uint32_t i,
                                           std::size_t k = 0) const;

  /// Messages announced so far in interval i.
  [[nodiscard]] std::size_t announced_count(std::uint32_t i) const noexcept;

  [[nodiscard]] const DapConfig& config() const noexcept { return config_; }
  [[nodiscard]] const crypto::KeyChain& chain() const noexcept {
    return chain_;
  }

 private:
  DapConfig config_;
  crypto::KeyChain chain_;
  std::map<std::uint32_t, std::vector<common::Bytes>> announced_;
  /// Precomputed HMAC state per interval MAC key: multi-message streams
  /// (P_{i,1..m}) pay the ipad/opad setup once per interval, not per
  /// announce.
  std::map<std::uint32_t, crypto::HmacKey> mac_key_cache_;
};

struct DapStats {
  std::uint64_t announces_received = 0;
  std::uint64_t announces_unsafe = 0;   // i + d < x discard
  std::uint64_t records_offered = 0;
  std::uint64_t records_stored = 0;
  std::uint64_t reveals_received = 0;
  std::uint64_t weak_auth_failures = 0;   // h(K_i) != K_{i-1}
  std::uint64_t strong_auth_success = 0;  // μMAC matched
  std::uint64_t strong_auth_failures = 0; // no stored record matched
  std::uint64_t admissions_shed = 0;      // dropped at the record pool cap
  std::uint64_t crash_restarts = 0;
  std::uint64_t mac_key_derivations = 0;  // F'(K_i) computations (batching KPI)
};

class DapReceiver {
 public:
  /// `commitment` is the authenticated K_0; `local_secret` is this node's
  /// private K_recv (Algorithm 2). Throws on empty inputs, zero buffers,
  /// or a micro_mac_size outside [1, 4] bytes (a packed record holds at
  /// most a 32-bit μMAC).
  DapReceiver(const DapConfig& config, common::Bytes commitment,
              common::Bytes local_secret, sim::LooseClock clock,
              common::Rng rng);

  /// Algorithm 2 lines 1-14.
  void receive(const wire::MacAnnounce& packet, sim::SimTime local_now);

  /// Algorithm 2 lines 15-25; returns the message if authenticated.
  /// A successful match consumes only the matched record, so several
  /// reveals for the same interval (multi-message streams) each
  /// authenticate independently against the shared buffer.
  std::optional<tesla::AuthenticatedMessage> receive(
      const wire::MessageReveal& packet, sim::SimTime local_now);

  // ---- Batched reveal verification ---------------------------------------

  /// Queues a reveal for deferred processing by drain_pending_batch().
  void enqueue(const wire::MessageReveal& packet);

  /// Reveals currently queued.
  [[nodiscard]] std::size_t pending_reveals() const noexcept {
    return pending_.size();
  }

  /// Processes every queued reveal in arrival order, deriving each
  /// interval's MAC key F'(K_i) once per drain instead of once per
  /// reveal (multi-message streams share the interval key). Outcomes
  /// match one-at-a-time receive() calls at the same `local_now`
  /// exactly; slot k of the result is the outcome of the k-th queued
  /// packet.
  std::vector<std::optional<tesla::AuthenticatedMessage>> drain_pending_batch(
      sim::SimTime local_now);

  /// Verdict of the most recent reveal processed (via either receive()
  /// or a drain); lets callers tag verify spans with the reject reason.
  [[nodiscard]] tesla::RevealVerdict last_verdict() const noexcept {
    return last_verdict_;
  }

  /// Per-reveal verdicts of the last drain_pending_batch() call, in the
  /// same order as its return value.
  [[nodiscard]] const std::vector<tesla::RevealVerdict>& last_drain_verdicts()
      const noexcept {
    return last_drain_verdicts_;
  }

  [[nodiscard]] const DapStats& stats() const noexcept { return stats_; }

  /// Re-tunes the buffer count for rounds that have not started yet
  /// (rounds with an existing buffer keep their capacity). Used by the
  /// game-driven strategy::AdaptiveDefender. Throws on m == 0.
  void set_buffers(std::size_t m);
  [[nodiscard]] std::size_t buffers() const noexcept {
    return config_.buffers;
  }

  /// Storage currently used by buffered records, in bits (56 per record
  /// with default sizes) — the quantity §VI-A's memory accounting uses.
  [[nodiscard]] std::size_t stored_record_bits() const noexcept {
    return stored_records() * (config_.micro_mac_size * 8 + 32);
  }

  /// Buffered record count for interval i (test introspection).
  [[nodiscard]] std::size_t buffered_records(std::uint32_t i) const noexcept {
    const std::size_t row = window_.find(i);
    return row == window_.kNoRow ? 0 : window_.count(row, 0);
  }

  /// Total records currently buffered across all live rounds (the pool
  /// the degradation policy watches).
  [[nodiscard]] std::size_t stored_records() const noexcept {
    return window_.stored();
  }

  /// Reservoir size new rounds get right now (== buffers() unless the
  /// degradation policy shrank it under pool pressure).
  [[nodiscard]] std::size_t effective_buffers() const noexcept {
    return effective_buffers_;
  }

  // ---- Resync / recovery (config_.resync) --------------------------------

  /// Wires the transport that re-executes the timesync handshake when a
  /// desync episode is declared. Without a handler the receiver still
  /// detects desync but cannot recover.
  void set_resync_handler(tesla::ResyncFn handler);

  /// Idle-time driver for the resync state machine: lets retry/backoff
  /// progress during periods with no inbound traffic (blackouts).
  void tick(sim::SimTime local_now) { resync_.maybe_resync(local_now); }

  /// Simulates a crash/restart: volatile state (record buffers, cached
  /// chain keys, the live calibration) is dropped; the newest
  /// authenticated chain key survives as the persistent anchor, so the
  /// receiver re-authenticates forward via the one-way chain.
  void crash_restart(sim::SimTime local_now);

  [[nodiscard]] bool desynced() const noexcept { return resync_.desynced(); }
  [[nodiscard]] const tesla::ResyncStats& resync_stats() const noexcept {
    return resync_.stats();
  }

 private:
  /// The packed record Algorithm 2 stores for `mac`: μMAC_{K_recv}(mac)
  /// in the high 32 bits, the interval index in the low 32.
  [[nodiscard]] std::uint64_t record_of(common::ByteView mac,
                                        std::uint32_t interval) const;

  /// Per-drain cache: MAC keys already derived for this batch, keyed by
  /// interval and held as precomputed HMAC state (each MAC then costs 2
  /// compressions instead of 4). Accept/reject outcomes are NEVER cached
  /// — two reveals for the same interval can carry different key bytes,
  /// and each must be judged on its own.
  struct BatchContext {
    std::map<std::uint32_t, crypto::HmacKey> mac_keys;
  };

  /// The one reveal path, after weak authentication: receive() passes a
  /// one-reveal context and ChainAuthenticator::accept's verdict,
  /// drain_pending_batch() one context per drain and the verdicts of
  /// ChainAuthenticator::accept_many.
  std::optional<tesla::AuthenticatedMessage> process_reveal(
      const wire::MessageReveal& packet, sim::SimTime local_now,
      BatchContext& batch, bool weak_ok);

  /// Degradation policy: true when the offer must be shed because the
  /// record pool is saturated; adjusts effective_buffers_ both ways.
  bool degrade_or_admit(sim::SimTime local_now);

  /// Global-registry handles mirroring DapStats, resolved once at
  /// construction so the receive paths never touch instrument names.
  /// Aggregated across every receiver in the process.
  struct Telemetry {
    obs::CounterHandle announces_received;
    obs::CounterHandle announces_unsafe;
    obs::CounterHandle records_offered;
    obs::CounterHandle records_stored;
    obs::CounterHandle buffer_evictions;
    obs::CounterHandle reveals_received;
    obs::CounterHandle weak_auth_failures;
    obs::CounterHandle strong_auth_success;
    obs::CounterHandle strong_auth_failures;
    obs::CounterHandle admissions_shed;
    obs::CounterHandle crash_restarts;
    obs::CounterHandle mac_key_derivations;
    obs::CounterHandle reveal_batches;
    obs::CounterHandle batched_reveals;
    obs::HistogramHandle rx_announce_latency;
    obs::HistogramHandle rx_reveal_latency;
    obs::GaugeHandle effective_buffers;
  };

  [[nodiscard]] static Telemetry make_telemetry();

  DapConfig config_;
  Telemetry telemetry_;
  common::Bytes local_secret_;
  /// K_recv as precomputed HMAC state: every μMAC re-MAC costs 2
  /// compressions instead of 4 for the lifetime of the receiver.
  crypto::HmacKey local_secret_key_;
  sim::LooseClock clock_;
  common::Rng rng_;
  tesla::ChainAuthenticator auth_;
  tesla::RecordWindow<std::uint64_t> window_;  // packed records, d + 1 rows
  std::deque<wire::MessageReveal> pending_;        // enqueue() backlog
  DapStats stats_;
  tesla::ResyncController resync_;
  std::size_t effective_buffers_;
  tesla::RevealVerdict last_verdict_ = tesla::RevealVerdict::kAccepted;
  std::vector<tesla::RevealVerdict> last_drain_verdicts_;
};

}  // namespace dap::protocol
