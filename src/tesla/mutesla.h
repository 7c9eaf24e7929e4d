#pragma once
// μTESLA (SPINS, Perrig et al. 2002): TESLA adapted to severely
// resource-constrained nodes.
//
// Two deltas from TESLA: (1) the bootstrap is authenticated with a
// *symmetric* key shared between the base station and each node (no
// signature), and (2) the chain key is disclosed once per interval in a
// dedicated broadcast instead of riding in every data packet, saving
// per-packet bandwidth.

#include <cstdint>
#include <map>
#include <vector>

#include "common/bytes.h"
#include "crypto/keychain.h"
#include "sim/clock_model.h"
#include "tesla/tesla.h"
#include "wire/packet.h"

namespace dap::tesla {

struct MuTeslaConfig {
  wire::NodeId sender_id = 1;
  std::size_t chain_length = 64;
  std::uint32_t disclosure_delay = 2;
  std::size_t key_size = crypto::kChainKeySize;
  std::size_t mac_size = 10;
  sim::IntervalSchedule schedule{0, sim::kSecond};
};

/// Symmetric bootstrap payload: commitment + schedule, MACed under the
/// pairwise master key (unicast base-station -> node in SPINS).
struct MuTeslaBootstrap {
  wire::NodeId sender = 0;
  std::uint32_t start_interval = 1;
  std::uint64_t interval_duration_us = 0;
  common::Bytes commitment;
  common::InlineBytes<32> mac;  // MAC under the pairwise master key
};

class MuTeslaSender {
 public:
  MuTeslaSender(const MuTeslaConfig& config, common::ByteView seed);

  /// Bootstrap for one node, authenticated with that node's master key.
  [[nodiscard]] MuTeslaBootstrap bootstrap_for(
      common::ByteView master_key) const;

  /// Data packet for interval i (no piggybacked disclosure).
  [[nodiscard]] wire::TeslaPacket make_packet(std::uint32_t i,
                                              common::ByteView message) const;

  /// Once-per-interval key disclosure: K_{i - d} published in interval i.
  /// Returns nullopt while i <= d (nothing to disclose yet).
  [[nodiscard]] std::optional<wire::KeyDisclosure> disclosure(
      std::uint32_t i) const;

  [[nodiscard]] const MuTeslaConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const crypto::KeyChain& chain() const noexcept {
    return chain_;
  }

 private:
  MuTeslaConfig config_;
  crypto::KeyChain chain_;
};

/// Verifies a symmetric bootstrap against the node's master key.
bool verify_mutesla_bootstrap(const MuTeslaBootstrap& bootstrap,
                              common::ByteView master_key);

class MuTeslaReceiver {
 public:
  /// Requires a bootstrap already verified with verify_mutesla_bootstrap.
  MuTeslaReceiver(const MuTeslaConfig& config, common::Bytes commitment,
                  sim::LooseClock clock);

  /// Data path; packets buffer until their interval key is disclosed.
  std::vector<AuthenticatedMessage> receive(const wire::TeslaPacket& packet,
                                            sim::SimTime local_now);

  /// Disclosure path; may release buffered packets.
  std::vector<AuthenticatedMessage> receive(const wire::KeyDisclosure& packet,
                                            sim::SimTime local_now);

  [[nodiscard]] const TeslaReceiverStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] std::uint32_t latest_key_index() const noexcept {
    return auth_.anchor_index();
  }

 private:
  std::vector<AuthenticatedMessage> drain_ready(sim::SimTime local_now);

  MuTeslaConfig config_;
  sim::LooseClock clock_;
  ChainAuthenticator auth_;
  struct Pending {
    common::Bytes message;
    common::InlineBytes<32> mac;
  };
  std::multimap<std::uint32_t, Pending> pending_;
  TeslaReceiverStats stats_;
};

}  // namespace dap::tesla
