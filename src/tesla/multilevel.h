#pragma once
// Multi-level μTESLA (Liu & Ning, TECS 2004), two-level instantiation,
// plus the authors' prior enhancements EFTP and EDRP (paper §III).
//
// Structure: a high-level key chain with long intervals; each high-level
// interval I_i carries its own low-level chain for data packets. During
// I_i the sender repeatedly broadcasts the commitment-distribution
// message CDM_i, which (a) distributes the low-level commitment of
// interval i+2, (b) discloses high-level key K_{i-1}, and (c) is MACed
// under K_i. Receivers keep `cdm_buffers` reservoir slots per interval so
// that flooded forged CDMs only win with probability ~ p^m.
//
// Options reproduced from the paper:
//  - LevelLink::kEftp re-anchors the low chain of interval i to K_i
//    (instead of K_{i+1}), so a receiver that lost the tail of interval
//    i's disclosures can recover its low keys one high-level interval
//    sooner (EFTP's claim).
//  - `edrp = true` adds H(CDM_{i+1}) to CDM_i (a backward hash chain):
//    an authentic CDM_i lets the receiver authenticate CDM_{i+1}
//    *instantly* on arrival, keeping DoS filtering alive across lossy
//    periods (EDRP's claim).

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "crypto/keychain.h"
#include "sim/clock_model.h"
#include "tesla/buffer.h"
#include "tesla/chain_auth.h"
#include "tesla/verdict.h"
#include "wire/packet.h"

namespace dap::tesla {

struct MultiLevelConfig {
  wire::NodeId sender_id = 1;
  std::size_t high_length = 16;  // number of high-level intervals
  std::size_t low_length = 10;   // low-level intervals per high interval
  std::uint32_t low_disclosure_delay = 2;  // d for the data (low) level
  std::size_t cdm_buffers = 4;             // reservoir slots per interval
  /// Cap on buffered (unauthenticated) data packets per low-level
  /// interval; excess offers go through reservoir selection, so a data
  /// flood cannot exhaust memory either.
  std::size_t data_buffers = 8;
  std::size_t key_size = crypto::kChainKeySize;
  std::size_t mac_size = 10;
  crypto::LevelLink link = crypto::LevelLink::kOriginal;
  bool edrp = false;
  sim::IntervalSchedule high_schedule{0, 100 * sim::kSecond};

  /// Low-level schedule derived from the high-level one.
  [[nodiscard]] sim::IntervalSchedule low_schedule() const noexcept {
    return {high_schedule.start(),
            high_schedule.duration() / static_cast<sim::SimTime>(low_length)};
  }
  /// Global (wire) index of low interval (i, j), i and j 1-based.
  [[nodiscard]] std::uint32_t global_index(std::uint32_t i,
                                           std::uint32_t j) const noexcept {
    return (i - 1) * static_cast<std::uint32_t>(low_length) + j;
  }
  /// Inverse of global_index: {high, low}.
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> split_index(
      std::uint32_t g) const noexcept {
    const auto n = static_cast<std::uint32_t>(low_length);
    return {(g - 1) / n + 1, (g - 1) % n + 1};
  }
};

class MultiLevelSender {
 public:
  MultiLevelSender(const MultiLevelConfig& config, common::ByteView seed);

  /// CDM for high interval i (1-based). CDMs are precomputed (EDRP's hash
  /// chain is built backwards) so this is a lookup.
  [[nodiscard]] const wire::CdmPacket& cdm(std::uint32_t i) const;

  /// Data packet in low interval (i, j), both 1-based; piggybacks the
  /// within-chain disclosure K_{i, j-d} when j > d.
  [[nodiscard]] wire::TeslaPacket make_data_packet(
      std::uint32_t i, std::uint32_t j, common::ByteView message) const;

  /// What a receiver needs at bootstrap: high commitment K_0 and the low
  /// commitments of the first two intervals (CDMs only cover i+2).
  struct BootstrapInfo {
    common::Bytes high_commitment;
    common::Bytes low_commitment_1;
    common::Bytes low_commitment_2;
  };
  [[nodiscard]] BootstrapInfo bootstrap() const;

  [[nodiscard]] const MultiLevelConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const crypto::TwoLevelKeyChain& chain() const noexcept {
    return chain_;
  }

 private:
  MultiLevelConfig config_;
  crypto::TwoLevelKeyChain chain_;
  std::vector<wire::CdmPacket> cdms_;  // cdms_[i-1] = CDM_i
};

/// How a CDM ended up authenticated.
enum class CdmAuthPath : std::uint8_t {
  kMacAfterKeyDisclosure,  // classic: waited for K_i, verified the MAC
  kHashChain,              // EDRP: matched H(CDM_i) from authentic CDM_{i-1}
};

struct MultiLevelEvents {
  std::vector<AuthenticatedMessage> messages;

  struct CdmAuthenticated {
    std::uint32_t high_interval = 0;
    sim::SimTime at = 0;
    CdmAuthPath path = CdmAuthPath::kMacAfterKeyDisclosure;
  };
  std::vector<CdmAuthenticated> cdms;

  struct LowChainRecovered {
    std::uint32_t high_interval = 0;  // whose low chain became derivable
    sim::SimTime at = 0;
  };
  std::vector<LowChainRecovered> recoveries;

  void merge(MultiLevelEvents&& other);
};

struct MultiLevelStats {
  std::uint64_t cdm_received = 0;
  std::uint64_t cdm_unsafe = 0;
  std::uint64_t cdm_buffered = 0;
  std::uint64_t cdm_authenticated = 0;
  std::uint64_t cdm_forged_dropped = 0;  // failed MAC / hash check
  std::uint64_t data_received = 0;
  std::uint64_t data_unsafe = 0;
  std::uint64_t data_authenticated = 0;
  std::uint64_t data_rejected = 0;
  std::uint64_t low_chains_recovered_via_high = 0;
};

class MultiLevelReceiver {
 public:
  MultiLevelReceiver(const MultiLevelConfig& config,
                     const MultiLevelSender::BootstrapInfo& bootstrap,
                     sim::LooseClock clock, common::Rng rng);

  MultiLevelEvents receive(const wire::CdmPacket& packet,
                           sim::SimTime local_now);
  MultiLevelEvents receive(const wire::TeslaPacket& packet,
                           sim::SimTime local_now);

  [[nodiscard]] const MultiLevelStats& stats() const noexcept {
    return stats_;
  }
  /// True once CDM_i has been authenticated (by either path).
  [[nodiscard]] bool cdm_authentic(std::uint32_t i) const noexcept;
  /// True once the low chain of interval i is usable (commitment known).
  [[nodiscard]] bool low_chain_known(std::uint32_t i) const noexcept;

 private:
  /// Registers an authentic CDM's contents; returns resulting events.
  MultiLevelEvents adopt_cdm(const wire::CdmPacket& cdm, sim::SimTime now,
                             CdmAuthPath path);
  /// Creates the low authenticator for interval i from a commitment.
  MultiLevelEvents ensure_low_chain(std::uint32_t i, common::Bytes commitment,
                                    sim::SimTime now, bool via_recovery);
  /// Tries to authenticate buffered CDM copies whose key is now known.
  MultiLevelEvents try_authenticate_buffered(sim::SimTime now);
  /// After a high key became authentic: derive linked low chains (EFTP /
  /// original F01 recovery path).
  MultiLevelEvents recover_from_high_key(std::uint32_t accepted_index,
                                         sim::SimTime now);
  /// Drains pending data packets of intervals whose keys are known.
  std::vector<AuthenticatedMessage> drain_data(sim::SimTime now);

  MultiLevelConfig config_;
  sim::LooseClock clock_;
  common::Rng rng_;
  ChainAuthenticator high_auth_;
  std::map<std::uint32_t, ChainAuthenticator> low_auth_;  // by high interval
  std::map<std::uint32_t, ReservoirBuffer<wire::CdmPacket>> cdm_buffers_;
  std::map<std::uint32_t, bool> cdm_done_;
  std::map<std::uint32_t, common::Bytes> expected_cdm_image_;  // EDRP
  struct PendingData {
    common::Bytes message;
    common::InlineBytes<32> mac;
  };
  // Per global low-interval index, bounded by data_buffers each.
  std::map<std::uint32_t, ReservoirBuffer<PendingData>> pending_data_;
  MultiLevelStats stats_;
};

/// The byte string EDRP hashes to form H(CDM): MAC payload plus MAC
/// (the disclosed key is excluded — it authenticates via the chain).
common::Bytes cdm_image_payload(const wire::CdmPacket& cdm);

}  // namespace dap::tesla
