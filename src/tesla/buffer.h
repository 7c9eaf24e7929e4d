#pragma once
// Multi-buffer random selection (the DoS-mitigation core shared by
// multi-level μTESLA, DAP receivers and fleet cohorts).
//
// A receiver keeps `m` slots per authentication round. Copies of a packet
// (authentic or forged — indistinguishable before key disclosure) are
// *offered* one at a time. The k-th offer is kept with probability m/k;
// if kept, it replaces a uniformly random slot. This is reservoir
// sampling: after n offers every copy resides in the buffer set with
// probability exactly m/n, so a flooding attacker gains nothing from
// sending its forgeries early or late — only the volume fraction p
// matters, and all-m-slots-forged happens with probability ~ p^m.
//
// One kernel serves every caller. `decide()` maps (occupied slots,
// offer index, m, policy, draw source) to "discard" or a slot, BEFORE
// the caller builds the record, so a discarded offer costs no re-MAC.
// The draw source is a parameter:
//   - RngDraws: bernoulli(m/k) then uniform(0, m-1) from a stateful Rng
//     (DAP receivers, multi-level μTESLA);
//   - SeededDraws: stateless SplitMix64 words subseed(round_seed, 2k)
//     and subseed(round_seed, 2k+1), so a fleet cohort can replay any
//     member's decisions on any thread in any order.
//
// Slot layout: occupied slots are always the prefix [0, count). A fill
// goes to slot `count`; a take removes its slot and shifts the later
// records down one. Every caller shares this layout, so a victim index
// names the same record in a DapReceiver and in a cohort member.
//
// The naive-drop (keep first m, drop the rest) and always-replace (every
// later offer evicts a random slot) policies exist for the buffer-policy
// ablation: naive-drop lets an attacker who bursts *early* in the
// interval capture all slots deterministically, always-replace one who
// bursts late.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/contracts.h"
#include "common/parallel.h"
#include "common/rng.h"

namespace dap::tesla {

enum class BufferPolicy : std::uint8_t {
  kReservoir,      // the paper's m/k random selection
  kNaiveDrop,      // keep first m copies, drop the rest
  kAlwaysReplace,  // every later copy evicts a random slot
};

/// decide()'s answer for an offer that is not stored.
inline constexpr std::size_t kDiscard = static_cast<std::size_t>(-1);

/// Draws from a stateful generator, in the order bernoulli(keep) then
/// uniform(0, m-1); `offer` is unused because the stream position
/// already encodes it.
class RngDraws {
 public:
  explicit RngDraws(common::Rng& rng) noexcept : rng_(rng) {}
  bool keep(double probability, std::uint64_t /*offer*/) noexcept {
    return rng_.bernoulli(probability);
  }
  std::size_t victim(std::size_t m, std::uint64_t /*offer*/) {
    return static_cast<std::size_t>(rng_.uniform(0, m - 1));
  }

 private:
  common::Rng& rng_;
};

/// Stateless draws: offer k's keep word is subseed(round_seed, 2k) and
/// its victim word subseed(round_seed, 2k + 1), so each decision depends
/// on (round_seed, k) alone.
class SeededDraws {
 public:
  explicit SeededDraws(std::uint64_t round_seed) noexcept
      : round_seed_(round_seed) {}
  [[nodiscard]] bool keep(double probability,
                          std::uint64_t offer) const noexcept {
    return common::unit_double(common::subseed(round_seed_, 2 * offer)) <
           probability;
  }
  [[nodiscard]] std::size_t victim(std::size_t m,
                                   std::uint64_t offer) const noexcept {
    return static_cast<std::size_t>(
        common::subseed(round_seed_, 2 * offer + 1) % m);
  }

 private:
  std::uint64_t round_seed_;
};

/// The kernel's decide step for the `offer`-th copy (1-based) of a
/// round with `count` of `m` slots occupied: kDiscard, `count` while a
/// slot is free, else the victim slot the copy overwrites.
template <typename Draws>
[[nodiscard]] std::size_t decide(std::size_t count, std::uint64_t offer,
                                 std::size_t m, BufferPolicy policy,
                                 Draws& draws) {
  DAP_INVARIANT(count <= m && count < offer,
                "decide: occupied slots exceed capacity or offers");
  if (count < m) return count;
  switch (policy) {
    case BufferPolicy::kNaiveDrop:
      return kDiscard;
    case BufferPolicy::kAlwaysReplace:
      return draws.victim(m, offer);
    case BufferPolicy::kReservoir:
      break;
  }
  // Algorithm 2 line 9: keep the k-th copy with probability m/k (< 1,
  // since a full buffer has seen more than m offers).
  const double keep = static_cast<double>(m) / static_cast<double>(offer);
  if (!draws.keep(keep, offer)) return kDiscard;
  return draws.victim(m, offer);
}

/// An m-slot round buffer under one policy, over the shared layout.
template <typename T>
class ReservoirBuffer {
 public:
  explicit ReservoirBuffer(std::size_t capacity,
                           BufferPolicy policy = BufferPolicy::kReservoir)
      : capacity_(capacity), policy_(policy) {
    if (capacity == 0) {
      throw std::invalid_argument("ReservoirBuffer: capacity must be >= 1");
    }
    slots_.reserve(capacity);
  }

  /// Counts one offer and returns where it goes (kDiscard or a slot for
  /// store()), without needing the value yet.
  template <typename Draws>
  [[nodiscard]] std::size_t admit(Draws& draws) {
    ++offers_;
    return decide(slots_.size(), offers_, capacity_, policy_, draws);
  }

  /// Stores `value` in the slot admit() just returned.
  void store(std::size_t slot, T value) {
    if (slot == slots_.size()) {
      slots_.push_back(std::move(value));
    } else {
      slots_[slot] = std::move(value);
    }
  }

  /// admit() + store() with Rng draws; returns true if stored.
  bool offer(T value, common::Rng& rng) {
    RngDraws draws(rng);
    const std::size_t slot = admit(draws);
    if (slot == kDiscard) return false;
    store(slot, std::move(value));
    return true;
  }

  /// Removes only the first record satisfying `match`, shifting the
  /// later ones down a slot; returns whether one was found.
  template <typename Match>
  bool take_first(Match match) {
    for (auto it = slots_.begin(); it != slots_.end(); ++it) {
      if (match(*it)) {
        slots_.erase(it);
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] const std::vector<T>& contents() const noexcept {
    return slots_;
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t offers() const noexcept { return offers_; }
  [[nodiscard]] bool empty() const noexcept { return slots_.empty(); }
  [[nodiscard]] bool full() const noexcept {
    return slots_.size() >= capacity_;
  }

  /// Clears contents and the offer counter (start of a new round).
  void reset() noexcept {
    slots_.clear();
    offers_ = 0;
  }

 private:
  std::size_t capacity_;
  BufferPolicy policy_;
  std::size_t offers_ = 0;
  std::vector<T> slots_;
};

}  // namespace dap::tesla
