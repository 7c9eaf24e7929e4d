#pragma once
// TESLA++ (Studer et al., 2009), the VANET-oriented DoS-resistant TESLA
// variant the paper compares DAP against.
//
// Key ideas reproduced: (1) the MAC travels *before* the message, so a
// receiver only buffers a MAC-sized record, never a full packet, and
// (2) the receiver does not store the received MAC itself but a
// *self-computed* shortened re-MAC under a local secret key, so memory
// per record is small and attacker-chosen collisions are useless.
// The message + disclosed key arrive one interval later and are matched
// against the stored re-MACs.
//
// (TESLA++ additionally signs some traffic with ECDSA for non-repudiation;
// that aspect is orthogonal to the DoS/memory trade-off studied here and
// is covered by the Merkle-signed anchors below, per DESIGN.md.)

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/bytes.h"
#include "crypto/keychain.h"
#include "crypto/merkle.h"
#include "obs/registry.h"
#include "sim/clock_model.h"
#include "tesla/chain_auth.h"
#include "tesla/resync.h"
#include "tesla/verdict.h"
#include "wire/packet.h"

namespace dap::tesla {

/// A signed chain anchor: TESLA++'s periodic digital signature, realised
/// with a Merkle many-time signature (DESIGN.md substitutions). Binding
/// (interval, K_interval) under the sender's published Merkle root lets a
/// receiver join mid-stream: it trusts K_interval directly instead of
/// walking the chain from K_0.
struct SignedAnchor {
  std::uint32_t interval = 0;
  common::Bytes key;  // K_interval (already public once disclosed)
  crypto::MerkleSignature signature;
};

struct TeslaPpConfig {
  wire::NodeId sender_id = 1;
  std::size_t chain_length = 64;
  std::size_t key_size = crypto::kChainKeySize;
  std::size_t mac_size = 10;       // announced MAC (80-bit)
  std::size_t self_mac_size = 4;   // stored re-MAC record
  /// Optional cap on stored records per interval (0 = unlimited). With a
  /// cap, TESLA++ drops records first-come-first-kept, which is exactly
  /// the weakness DAP's reservoir selection fixes (ablation E9).
  std::size_t max_records_per_interval = 0;
  sim::IntervalSchedule schedule{0, sim::kSecond};
  /// Degradation: cap on total stored records across intervals (0 =
  /// unlimited). TESLA++ has no reservoir to shrink, so at the cap it
  /// sheds new admissions outright — the contrast DAP's adaptive m is
  /// measured against.
  std::size_t record_pool_limit = 0;
  /// Desync detection / timesync re-execution policy (disabled by
  /// default).
  ResyncConfig resync{};
};

class TeslaPpSender {
 public:
  TeslaPpSender(const TeslaPpConfig& config, common::ByteView seed);

  /// Phase 1 (interval i): broadcast MAC only.
  [[nodiscard]] wire::MacAnnounce announce(std::uint32_t i,
                                           common::ByteView message);

  /// Phase 2 (interval i+1): broadcast message + disclosed key. Requires
  /// a prior announce for i (throws std::logic_error otherwise).
  [[nodiscard]] wire::MessageReveal reveal(std::uint32_t i) const;

  /// TESLA++'s periodic signature: a signed anchor for an already-public
  /// key K_i (i.e. i must be at least one interval in the past when the
  /// anchor is broadcast). Each call spends one Merkle leaf; throws
  /// std::runtime_error when the signer is exhausted.
  [[nodiscard]] SignedAnchor make_anchor(std::uint32_t i);

  /// The Merkle root receivers pin (distributed out-of-band).
  [[nodiscard]] const common::Bytes& signature_root() const noexcept {
    return signer_.root();
  }
  [[nodiscard]] std::size_t anchors_remaining() const noexcept {
    return signer_.capacity() - signer_.signatures_used();
  }

  [[nodiscard]] const TeslaPpConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const crypto::KeyChain& chain() const noexcept {
    return chain_;
  }

 private:
  TeslaPpConfig config_;
  crypto::KeyChain chain_;
  crypto::MerkleSigner signer_;
  std::map<std::uint32_t, common::Bytes> announced_;  // interval -> message
};

/// Verifies a signed anchor against the sender's pinned Merkle root.
bool verify_anchor(const SignedAnchor& anchor, common::ByteView root,
                   unsigned merkle_height = 4);

/// The byte string an anchor signature covers.
common::Bytes anchor_payload(const SignedAnchor& anchor);

struct TeslaPpStats {
  std::uint64_t announces_received = 0;
  std::uint64_t announces_unsafe = 0;
  std::uint64_t records_stored = 0;
  std::uint64_t records_dropped = 0;  // over the per-interval cap
  std::uint64_t reveals_received = 0;
  std::uint64_t keys_rejected = 0;
  std::uint64_t authenticated = 0;
  std::uint64_t unmatched = 0;  // reveal without a matching stored record
  std::uint64_t admissions_shed = 0;  // dropped at the record pool cap
  std::uint64_t crash_restarts = 0;
};

class TeslaPpReceiver {
 public:
  /// `commitment` is K_`anchor_index` and must come from a verified
  /// bootstrap: K_0, or a mid-stream signed anchor's key and interval
  /// (check verify_anchor first), after which traffic authenticates from
  /// interval anchor_index + 1 onward. `local_secret` is this node's
  /// private re-MAC key (never leaves the node).
  TeslaPpReceiver(const TeslaPpConfig& config, common::Bytes commitment,
                  common::Bytes local_secret, sim::LooseClock clock,
                  std::uint32_t anchor_index = 0);

  /// Phase 1: store a shortened self-MAC of the announced MAC.
  void receive(const wire::MacAnnounce& packet, sim::SimTime local_now);

  /// Phase 2: weakly authenticate the key, recompute the expected
  /// self-MAC and match it against interval i's stored records.
  std::vector<AuthenticatedMessage> receive(const wire::MessageReveal& packet,
                                            sim::SimTime local_now);

  [[nodiscard]] const TeslaPpStats& stats() const noexcept { return stats_; }
  /// Bits currently held in record storage (for the memory experiments).
  [[nodiscard]] std::size_t stored_record_bits() const noexcept;
  /// Total records currently stored across intervals.
  [[nodiscard]] std::size_t stored_records() const noexcept;

  // ---- Resync / recovery (config_.resync) --------------------------------

  /// Wires the timesync-handshake transport used by desync recovery.
  void set_resync_handler(ResyncFn handler);
  /// Idle-time driver for retry/backoff during silent periods.
  void tick(sim::SimTime local_now) { resync_.maybe_resync(local_now); }
  /// Crash/restart: drops records and cached keys, keeps the newest
  /// authenticated chain key as the persistent anchor.
  void crash_restart(sim::SimTime local_now);

  [[nodiscard]] bool desynced() const noexcept { return resync_.desynced(); }
  [[nodiscard]] const ResyncStats& resync_stats() const noexcept {
    return resync_.stats();
  }

 private:
  [[nodiscard]] common::Bytes self_mac(std::uint32_t interval,
                                       common::ByteView mac) const;

  /// Global-registry handles mirroring TeslaPpStats; resolved once so
  /// the receive paths update by index only.
  struct Telemetry {
    obs::CounterHandle announces_received;
    obs::CounterHandle announces_unsafe;
    obs::CounterHandle records_stored;
    obs::CounterHandle records_dropped;
    obs::CounterHandle reveals_received;
    obs::CounterHandle keys_rejected;
    obs::CounterHandle authenticated;
    obs::CounterHandle unmatched;
    obs::CounterHandle admissions_shed;
    obs::CounterHandle crash_restarts;
    obs::HistogramHandle rx_announce_latency;
    obs::HistogramHandle rx_reveal_latency;
  };

  [[nodiscard]] static Telemetry make_telemetry();

  TeslaPpConfig config_;
  Telemetry telemetry_;
  common::Bytes local_secret_;
  sim::LooseClock clock_;
  ChainAuthenticator auth_;
  std::map<std::uint32_t, std::set<common::Bytes>> records_;
  TeslaPpStats stats_;
  ResyncController resync_;
};

}  // namespace dap::tesla
