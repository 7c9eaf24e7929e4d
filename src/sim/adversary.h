#pragma once
// Adversary models for the memory-based DoS attack of the paper, plus the
// reveal forger used by the security tests.
//
// The paper's attacker floods the MAC announcement channel with forged
// MAC packets during interval I_i so that receiver buffers fill with
// garbage before the authentic MAC arrives; success means all m buffers
// hold forged copies (probability p^m under reservoir selection, where p
// is the forged fraction). `FloodingForger` produces exactly that load.

#include <cstdint>

#include "common/rng.h"
#include "sim/medium.h"
#include "wire/packet.h"

namespace dap::sim {

class FloodingForger {
 public:
  /// Impersonates `victim_sender`; forged MACs are `mac_size` random bytes.
  FloodingForger(wire::NodeId victim_sender, std::size_t mac_size,
                 common::Rng rng);

  /// One forged MAC announcement for `interval`.
  [[nodiscard]] wire::MacAnnounce forge(wire::IntervalIndex interval);

  /// Injects `count` forged announcements for `interval` into `medium`.
  void flood(Medium& medium, wire::IntervalIndex interval, std::size_t count);

  /// Forged copies needed so the forged fraction among
  /// (legit_copies + forged) is as close as possible to `p` (p in [0,1)).
  /// Throws std::invalid_argument for p outside [0,1).
  [[nodiscard]] static std::size_t copies_for_fraction(
      std::size_t legit_copies, double p);

  [[nodiscard]] std::uint64_t packets_forged() const noexcept {
    return forged_;
  }

 private:
  wire::NodeId victim_;
  std::size_t mac_size_;
  common::Rng rng_;
  std::uint64_t forged_ = 0;
};

/// Crafts a full forged reveal (message + guessed key). Without breaking
/// the one-way chain this fails the receiver's weak authentication.
class KeyGuessForger {
 public:
  KeyGuessForger(wire::NodeId victim_sender, std::size_t key_size,
                 common::Rng rng);

  [[nodiscard]] wire::MessageReveal forge_reveal(
      wire::IntervalIndex interval, common::ByteView message);

 private:
  wire::NodeId victim_;
  std::size_t key_size_;
  common::Rng rng_;
};

}  // namespace dap::sim
