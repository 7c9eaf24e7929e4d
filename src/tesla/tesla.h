#pragma once
// TESLA (Perrig et al., IEEE S&P 2000): broadcast authentication from a
// one-way key chain and delayed key disclosure.
//
// Sender: interval I_i uses MAC key F'(K_i); each packet carries the
// message, its MAC, and (piggybacked) the key of interval i - d.
// Receiver: buffers packets that pass the loose-time-sync safety check,
// weakly authenticates disclosed keys against the last authentic chain
// key, then verifies buffered MACs once the matching key is public.
// Bootstrap (the chain commitment K_0) is signed with a WOTS one-time
// signature — the hash-based stand-in for TESLA's digital signature
// (see DESIGN.md substitutions).

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "crypto/keychain.h"
#include "crypto/wots.h"
#include "sim/clock_model.h"
#include "sim/time.h"
#include "tesla/chain_auth.h"
#include "wire/packet.h"

namespace dap::tesla {

struct TeslaConfig {
  wire::NodeId sender_id = 1;
  std::size_t chain_length = 64;     // number of usable intervals
  std::uint32_t disclosure_delay = 2;  // d, in intervals
  std::size_t key_size = crypto::kChainKeySize;
  std::size_t mac_size = 10;         // 80-bit packet MACs
  sim::IntervalSchedule schedule{0, sim::kSecond};
};

class TeslaSender {
 public:
  /// `seed` deterministically derives the key chain and the bootstrap
  /// signing key.
  TeslaSender(const TeslaConfig& config, common::ByteView seed);

  /// Signed bootstrap packet carrying the commitment K_0 and schedule.
  [[nodiscard]] wire::BootstrapPacket bootstrap();

  /// Builds the packet for `message` in interval `i` (1-based; throws
  /// std::out_of_range past the chain end). Piggybacks K_{i-d} when it
  /// exists.
  [[nodiscard]] wire::TeslaPacket make_packet(std::uint32_t i,
                                              common::ByteView message) const;

  [[nodiscard]] const TeslaConfig& config() const noexcept { return config_; }
  /// Exposed for tests and for receivers constructed out-of-band.
  [[nodiscard]] const crypto::KeyChain& chain() const noexcept {
    return chain_;
  }

 private:
  TeslaConfig config_;
  crypto::KeyChain chain_;
  crypto::WotsKeyPair signer_;
};

/// A message the receiver has fully authenticated, tagged with the
/// interval it was sent in and the local time authentication completed.
struct AuthenticatedMessage {
  std::uint32_t interval = 0;
  common::Bytes message;
  sim::SimTime authenticated_at = 0;

  bool operator==(const AuthenticatedMessage&) const = default;
};

/// Receiver statistics used by tests and experiments.
struct TeslaReceiverStats {
  std::uint64_t packets_received = 0;
  std::uint64_t packets_unsafe = 0;     // failed the time-sync safety check
  std::uint64_t packets_buffered = 0;
  std::uint64_t keys_accepted = 0;
  std::uint64_t keys_rejected = 0;
  std::uint64_t macs_verified = 0;
  std::uint64_t macs_rejected = 0;
  std::uint64_t buffered_now = 0;       // packets currently awaiting a key
};

class TeslaReceiver {
 public:
  /// Constructed from a *verified* bootstrap: callers must check the WOTS
  /// signature first (`verify_bootstrap` below) — the constructor trusts
  /// its inputs, mirroring the protocol's "authenticated commitment"
  /// assumption.
  TeslaReceiver(const TeslaConfig& config, common::Bytes commitment,
                sim::LooseClock clock);

  /// Processes one packet at local time `local_now`. Returns any messages
  /// that became authenticated as a result (a disclosed key can release
  /// several buffered packets at once).
  std::vector<AuthenticatedMessage> receive(const wire::TeslaPacket& packet,
                                            sim::SimTime local_now);

  [[nodiscard]] const TeslaReceiverStats& stats() const noexcept {
    return stats_;
  }
  /// Index of the newest chain key accepted as authentic (0 = commitment).
  [[nodiscard]] std::uint32_t latest_key_index() const noexcept {
    return auth_.anchor_index();
  }

 private:
  /// Releases buffered packets for every interval with a known key.
  std::vector<AuthenticatedMessage> drain_ready(sim::SimTime local_now);

  TeslaConfig config_;
  sim::LooseClock clock_;
  ChainAuthenticator auth_;
  struct Pending {
    common::Bytes message;
    common::InlineBytes<32> mac;
  };
  std::multimap<std::uint32_t, Pending> pending_;
  TeslaReceiverStats stats_;
};

/// Verifies a bootstrap packet's WOTS signature over its payload fields.
/// `expected_public_key` pins the sender's identity (distributed
/// out-of-band, e.g. pre-installed on the node).
bool verify_bootstrap(const wire::BootstrapPacket& packet,
                      common::ByteView expected_public_key);

/// The byte string a bootstrap signature covers.
common::Bytes bootstrap_payload(const wire::BootstrapPacket& packet);

}  // namespace dap::tesla
