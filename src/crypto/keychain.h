#pragma once
// One-way key chains, the backbone of every TESLA-family protocol.
//
// A chain is generated backwards from a random seed: the seed is the LAST
// key K_N, and K_i = F(K_{i+1}) for a one-way F. Keys are then *used*
// forward in time (K_1, K_2, ...), so revealing K_i never exposes any
// later key. Receivers hold an authenticated commitment (typically K_0)
// and authenticate a disclosed key by walking F the right number of steps.
// Every walk here runs the one portable step `prf_walk` (crypto/prf.h).
//
// `TwoLevelKeyChain` implements the multi-level μTESLA structure: a
// high-level chain with long intervals, plus one low-level chain per
// high-level interval. The `LevelLink` mode selects how the low-level
// chain is anchored to the high-level chain:
//   kOriginal (Liu & Ning):  K_{i,n} = F01(K_{i+1})
//   kEftp     (§III-A):      K_{i,n} = F01(K_i)
// EFTP's re-anchoring is exactly what shortens loss recovery by one
// high-level interval, and the tesla/ module exercises both modes.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "crypto/prf.h"

namespace dap::crypto {

/// Key length used on the wire by the paper's protocols (80 bits).
inline constexpr std::size_t kChainKeySize = 10;

class KeyChain {
 public:
  /// Generates a chain of `length + 1` keys K_0..K_length from `seed`
  /// (the seed becomes K_length). `key_size` is the truncated key length
  /// in bytes (1..32). K_0 is the receiver commitment.
  KeyChain(common::ByteView seed, std::size_t length,
           PrfDomain step_domain = PrfDomain::kChainStep,
           std::size_t key_size = kChainKeySize);

  /// Number of *usable* keys (indices 1..length; index 0 is commitment).
  [[nodiscard]] std::size_t length() const noexcept {
    return keys_.size() - 1;
  }
  [[nodiscard]] std::size_t key_size() const noexcept { return key_size_; }
  [[nodiscard]] PrfDomain step_domain() const noexcept { return domain_; }

  /// K_i; throws std::out_of_range for i > length().
  [[nodiscard]] const common::Bytes& key(std::size_t i) const;

  /// The commitment K_0 distributed to receivers at bootstrap.
  [[nodiscard]] const common::Bytes& commitment() const { return key(0); }

  /// Derived MAC key for interval i: F'(K_i). Never MAC with the chain
  /// key itself, or disclosing it would also disclose the MAC key early.
  [[nodiscard]] common::Bytes mac_key(std::size_t i) const;

 private:
  PrfDomain domain_;
  std::size_t key_size_;
  std::vector<common::Bytes> keys_;  // keys_[i] == K_i
};

/// Stateless helper usable by receivers that never see a KeyChain object:
/// applies `steps` iterations of the domain's one-way function to the
/// key_size-byte `key` and returns the end of the walk.
common::Bytes chain_walk(PrfDomain domain, common::ByteView key,
                         std::size_t steps, std::size_t key_size);

/// The same walk keeping every value, laid out as prf_walk lays it out
/// (ChainAuthenticator::accept). Both forms count every step.
void chain_walk_trajectory(PrfDomain domain, common::ByteView key,
                           std::size_t key_size,
                           std::span<std::uint8_t> trajectory);

/// Deterministic seed of high interval i's low-level chain, given the
/// anchor high-level key selected by the link mode. Public because
/// *receivers* recompute it during loss recovery: once a high-level key is
/// authenticated, the whole low-level chain of the linked interval can be
/// re-derived without having received any of its disclosures.
common::Bytes low_chain_seed(common::ByteView anchor_high_key,
                             std::size_t high_interval);

/// Receiver-side recovery of low-level key K_{i,j} from the authenticated
/// anchor high-level key of interval i (K_{i+1} under kOriginal, K_i under
/// kEftp — the caller picks the right anchor for its link mode).
common::Bytes derive_low_key(common::ByteView anchor_high_key,
                             std::size_t high_interval, std::size_t j,
                             std::size_t low_length, std::size_t key_size);

enum class LevelLink : std::uint8_t {
  kOriginal,  // multi-level μTESLA: low chain of interval i seeded from K_{i+1}
  kEftp,      // EFTP: low chain of interval i seeded from K_i
};

class TwoLevelKeyChain {
 public:
  /// `high_length` high-level intervals, each containing `low_length`
  /// low-level intervals.
  TwoLevelKeyChain(common::ByteView seed, std::size_t high_length,
                   std::size_t low_length, LevelLink link,
                   std::size_t key_size = kChainKeySize);

  [[nodiscard]] std::size_t high_length() const noexcept;
  [[nodiscard]] std::size_t low_length() const noexcept { return low_length_; }
  [[nodiscard]] LevelLink link() const noexcept { return link_; }
  [[nodiscard]] std::size_t key_size() const noexcept;

  /// High-level key K_i (i in 0..high_length).
  [[nodiscard]] const common::Bytes& high_key(std::size_t i) const;
  /// High-level commitment K_0.
  [[nodiscard]] const common::Bytes& high_commitment() const;
  /// MAC key derived from high-level K_i (used to MAC CDM_i).
  [[nodiscard]] common::Bytes high_mac_key(std::size_t i) const;

  /// Low-level key K_{i,j}: high interval i (1-based), low index j in
  /// 0..low_length; K_{i,0} is the low chain's commitment for interval i.
  [[nodiscard]] const common::Bytes& low_key(std::size_t i,
                                             std::size_t j) const;
  [[nodiscard]] common::Bytes low_mac_key(std::size_t i, std::size_t j) const;

  /// The anchor the low chain of interval i is derived from, per the
  /// configured link mode (K_{i+1} original, K_i EFTP).
  [[nodiscard]] const common::Bytes& low_anchor(std::size_t i) const;

 private:
  [[nodiscard]] const common::Bytes& low_anchor_internal(std::size_t i) const;

  KeyChain high_;
  std::size_t low_length_;
  LevelLink link_;
  std::vector<KeyChain> low_;  // low_[i-1] is the chain of high interval i
};

}  // namespace dap::crypto
