#pragma once
// Receiver-side one-way-chain authentication state, shared by every
// protocol receiver in the family (multi-level μTESLA's two levels,
// TESLA++, DAP).
//
// Holds the newest authentic (index, key) anchor and accepts a candidate
// K_i by walking the one-way function i - anchor steps ("weak
// authentication" in the paper's terms, Algorithm 2 line 16). `accept`
// and `accept_many` differ only in how they walk; one private judge
// rules on every trajectory. Instead of caching every
// intermediate key, the accept walk records a *checkpoint* every
// `checkpoint_stride` intervals, so verifying a key disclosed after an
// n-interval gap costs the same n hashes it always did but only
// O(n / stride) memory — and any key at or below the anchor is
// re-derivable from the nearest checkpoint above it in at most
// `stride` hashes instead of being a cache miss after pruning.

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "crypto/keychain.h"

namespace dap::tesla {

/// One (interval, key) candidate for batched acceptance. The view must
/// stay valid for the duration of the accept_many call.
struct KeyReveal {
  std::uint32_t interval = 0;
  common::ByteView key{};
};

class ChainAuthenticator {
 public:
  static constexpr std::uint32_t kDefaultCheckpointStride = 16;

  /// `commitment` is the authenticated K_0 (or K_anchor with
  /// `anchor_index` > 0 when bootstrapping mid-stream).
  /// `checkpoint_stride` sets the spacing of cached chain keys: larger
  /// strides use less memory but make below-anchor key derivation walk
  /// up to `stride` extra hashes.
  ChainAuthenticator(crypto::PrfDomain domain, std::size_t key_size,
                     common::Bytes commitment, std::uint32_t anchor_index = 0,
                     std::uint32_t checkpoint_stride = kDefaultCheckpointStride);

  /// Tries to accept `key` as K_i. Returns true if `key` is authentic
  /// (consistent with the anchor). Idempotent for already-known keys. A
  /// key whose size is not the chain's key size is rejected unwalked.
  bool accept(std::uint32_t i, common::ByteView key);

  /// Batched accept: verdicts and resulting state (anchor, checkpoints,
  /// accepted/rejected counts) are exactly what calling accept()
  /// sequentially in reveal order would produce, but the above-anchor
  /// gap walks run through the multi-lane batched backend
  /// (crypto/sha256_batch.h): every unique candidate is walked down to
  /// the pre-batch anchor once, lanes in lockstep, and the in-order
  /// judging then only compares against the captured trajectories.
  /// walk_steps() accounting differs from the sequential path by design:
  /// it counts the actual lane work (one full walk per unique candidate
  /// to the pre-batch anchor), which is deterministic across backends,
  /// lane counts, and thread counts.
  std::vector<bool> accept_many(std::span<const KeyReveal> reveals);

  /// Authentic key K_i if derivable (i within [floor, anchor], i.e. not
  /// rebased away); derived from the nearest checkpoint at or
  /// above i in at most `checkpoint_stride` hashes.
  [[nodiscard]] std::optional<common::Bytes> key(std::uint32_t i) const;

  /// Derived MAC key F'(K_i) if K_i is derivable.
  [[nodiscard]] std::optional<common::Bytes> mac_key(std::uint32_t i) const;

  [[nodiscard]] std::uint32_t anchor_index() const noexcept {
    return anchor_index_;
  }
  [[nodiscard]] const common::Bytes& anchor_key() const noexcept {
    return anchor_key_;
  }
  [[nodiscard]] std::uint64_t accepted() const noexcept { return accepted_; }
  /// Reveals proven inconsistent with the chain (any mismatch path: key
  /// size, anchor compare, below-anchor re-derivation, above-anchor
  /// walk). Empty keys and indices below the rebase floor are
  /// unverifiable, not rejected.
  [[nodiscard]] std::uint64_t rejected() const noexcept { return rejected_; }

  [[nodiscard]] std::uint32_t checkpoint_stride() const noexcept {
    return stride_;
  }
  /// Checkpoints currently cached (anchor included).
  [[nodiscard]] std::size_t cached_keys() const noexcept {
    return known_.size();
  }
  /// One-way-function evaluations spent in accept() walks and
  /// below-anchor derivations since construction.
  [[nodiscard]] std::uint64_t walk_steps() const noexcept {
    return walk_steps_;
  }

  /// Collapses state to the newest authenticated key — the persistent
  /// anchor a crash/restart keeps. All checkpoints are dropped, so
  /// reveals for intervals before the anchor can no longer authenticate
  /// (their records were volatile anyway); later intervals
  /// re-authenticate by walking the chain from the anchor.
  void rebase_to_newest();

 private:
  /// The verdict on `key` as K_i: compares, counts, and on success above
  /// the anchor installs checkpoints and moves it. `trajectory` is the
  /// walk down from `key` (crypto::prf_walk's layout); above the anchor
  /// it must reach it, elsewhere it is not read.
  bool judge(std::uint32_t i, common::ByteView key,
             common::ByteView trajectory);

  /// K_i for i in the derivable range: nearest checkpoint >= i walked
  /// down (checkpoint_index - i) steps. Precondition: floor <= i <=
  /// anchor (checked by callers).
  [[nodiscard]] common::Bytes derive(std::uint32_t i) const;

  crypto::PrfDomain domain_;
  std::size_t key_size_;
  std::uint32_t stride_;
  std::uint32_t anchor_index_;
  /// Lowest index still derivable; raised by rebase_to_newest.
  std::uint32_t floor_index_;
  common::Bytes anchor_key_;
  /// Sparse checkpoint cache: every stride-th index plus accepted tops
  /// and the anchor.
  std::map<std::uint32_t, common::Bytes> known_;
  std::uint64_t accepted_ = 0;
  std::uint64_t rejected_ = 0;
  mutable std::uint64_t walk_steps_ = 0;
};

}  // namespace dap::tesla
