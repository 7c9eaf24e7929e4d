#pragma once
// Multi-buffer random selection (the DoS-mitigation core shared by
// multi-level μTESLA, DAP receivers and fleet cohorts), and DAP's one
// bounded round store over it (RecordWindow).
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
//     member's decisions on any thread in any order. Given a
//     KeepThresholds table it decides keep with an integer compare that
//     is exactly the double one (see KeepThresholds).
//
// Slot layout: occupied slots are always the prefix [0, count). A fill
// goes to slot `count`; a take removes its slot and shifts the later
// records down one. RecordWindow keeps it for every caller.
//
// The naive-drop (keep first m, drop the rest) and always-replace (every
// later offer evicts a random slot) policies exist for the buffer-policy
// ablation: naive-drop lets an attacker who bursts *early* in the
// interval capture all slots deterministically, always-replace one who
// bursts late.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
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

/// decide()'s reservoir keep test as integers, for one m. Offer k is
/// kept when unit_double(word) < q, q = double(m) / double(k). Both
/// unit_double(word) = (word >> 11) * 2^-53 and q * 2^53 are exact, so
/// that holds exactly when (word >> 11) < ceil(ldexp(q, 53)), which
/// this table stores per offer index (capped at 2^53 for k <= m, where
/// every word keeps). Entries depend on (m, k) alone, so one table
/// serves every member of a cohort; it only grows.
class KeepThresholds {
 public:
  explicit KeepThresholds(std::size_t m) noexcept : m_(m) {}

  /// Extends the table to cover offers 1..max_offer.
  void grow(std::uint64_t max_offer) {
    std::size_t k = thresholds_.size();
    if (max_offer < k) return;
    thresholds_.resize(static_cast<std::size_t>(max_offer) + 1);
    for (; k < thresholds_.size(); ++k) {
      const double q = k == 0 ? 1.0
                              : static_cast<double>(m_) /
                                    static_cast<double>(k);
      thresholds_[k] = q >= 1.0 ? kAll
                                : static_cast<std::uint64_t>(
                                      std::ceil(std::ldexp(q, 53)));
    }
  }

  [[nodiscard]] std::uint64_t operator[](std::uint64_t offer) const noexcept {
    DAP_REQUIRE(offer < thresholds_.size(),
                "KeepThresholds: offer beyond the grown table");
    return thresholds_[static_cast<std::size_t>(offer)];
  }
  /// The keep test: unit_double(word) < double(m) / double(offer).
  [[nodiscard]] bool keeps(std::uint64_t word,
                           std::uint64_t offer) const noexcept {
    return (word >> 11) < (*this)[offer];
  }

 private:
  static constexpr std::uint64_t kAll = std::uint64_t{1} << 53;
  std::size_t m_;
  std::vector<std::uint64_t> thresholds_;
};

/// Stateless draws: offer k's keep word is subseed(round_seed, 2k) and
/// its victim word subseed(round_seed, 2k + 1), so each decision depends
/// on (round_seed, k) alone. With `thresholds` (grown past every offer
/// and built for decide()'s m) keep compares integers instead of
/// doubles; the decisions are the same either way.
class SeededDraws {
 public:
  explicit SeededDraws(std::uint64_t round_seed,
                       const KeepThresholds* thresholds = nullptr) noexcept
      : round_seed_(round_seed), thresholds_(thresholds) {}
  [[nodiscard]] bool keep(double probability,
                          std::uint64_t offer) const noexcept {
    const std::uint64_t word = common::subseed(round_seed_, 2 * offer);
    if (thresholds_ != nullptr) return thresholds_->keeps(word, offer);
    return common::unit_double(word) < probability;
  }
  /// word % m, through a mask when m is a power of two (the same value).
  [[nodiscard]] std::size_t victim(std::size_t m,
                                   std::uint64_t offer) const noexcept {
    const std::uint64_t word = common::subseed(round_seed_, 2 * offer + 1);
    if ((m & (m - 1)) == 0) return static_cast<std::size_t>(word & (m - 1));
    return static_cast<std::size_t>(word % m);
  }

 private:
  std::uint64_t round_seed_;
  const KeepThresholds* thresholds_;
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

/// Whether round `interval` may hold records while the sender can have
/// reached at most interval `x_hi`: its key is still undisclosed (the
/// TESLA safety check, x_hi < interval + d) and it can have been sent.
[[nodiscard]] constexpr bool round_admissible(std::uint32_t interval,
                                              std::uint32_t d,
                                              std::uint32_t x_hi) noexcept {
  return interval <= x_hi && std::uint64_t{interval} + d > x_hi;
}

/// DAP's one record store (§IV-D): a fixed set of round rows, each with an
/// interval, an offer count, the capacity it opened with and, per member,
/// a record count and a block of slots. A DapReceiver is one member of
/// packed μMAC words, a cohort members - 1 members of arrival indices.
/// When no row is free, the highest yields if above x_hi (it can hold no
/// authentic record), else the lowest. A row's storage is allocated at its
/// first opening unless reserve() made room for it beforehand.
template <typename T>
class RecordWindow {
 public:
  static constexpr std::size_t kNoRow = static_cast<std::size_t>(-1);

  RecordWindow(std::size_t rows, std::size_t members, BufferPolicy policy)
      : rows_(rows), members_(members), policy_(policy) {}

  /// Makes room in every row for `capacity` slots per member, so opening a
  /// row of at most that capacity allocates nothing, and keeps the storage
  /// of rows prune() frees (unreserved rows return theirs).
  void reserve(std::size_t capacity) {
    check_capacity(capacity);
    reserved_ = true;
    for (Row& row : rows_) {
      row.counts.reserve(members_);
      row.slots.reserve(members_ * capacity);
    }
  }

  [[nodiscard]] std::size_t find(std::uint32_t interval) const noexcept {
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      if (live(r) && rows_[r].interval == interval) return r;
    }
    return kNoRow;
  }
  /// The live row of `interval`, else a newly opened empty one of
  /// `capacity` slots per member.
  std::size_t row_for(std::uint32_t interval, std::size_t capacity,
                      std::uint32_t x_hi) {
    const std::size_t live_row = find(interval);
    if (live_row != kNoRow) return live_row;
    check_capacity(capacity);
    std::size_t r = 0, lowest = 0, highest = 0;
    for (; r < rows_.size() && live(r); ++r) {
      if (rows_[r].interval < rows_[lowest].interval) lowest = r;
      if (rows_[r].interval > rows_[highest].interval) highest = r;
    }
    if (r == rows_.size()) {
      r = rows_[highest].interval > x_hi ? highest : lowest;
    }
    Row& row = rows_[r];
    row.interval = interval;
    row.capacity = capacity;
    row.offers = 0;
    row.counts.assign(members_, 0);
    row.slots.resize(members_ * capacity);
    return r;
  }
  /// Frees every row below interval - d, whose key went public at least
  /// an interval before `interval` began.
  void prune(std::uint32_t interval, std::uint32_t d) noexcept {
    for (Row& row : rows_) {
      if (std::uint64_t{row.interval} + d >= interval) continue;
      row.capacity = 0;
      if (!reserved_) row = Row{};
    }
  }
  void clear() noexcept {
    for (Row& row : rows_) row.capacity = 0;
  }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }
  [[nodiscard]] bool live(std::size_t row) const noexcept {
    return rows_[row].capacity != 0;
  }
  [[nodiscard]] std::uint32_t interval(std::size_t row) const noexcept {
    return rows_[row].interval;
  }
  /// Offers the row has decided so far, shared by its members.
  std::uint64_t& offers(std::size_t row) noexcept { return rows_[row].offers; }
  [[nodiscard]] std::uint64_t offers(std::size_t row) const noexcept {
    return rows_[row].offers;
  }
  [[nodiscard]] std::size_t count(std::size_t row,
                                  std::size_t member) const noexcept {
    return rows_[row].counts[member];
  }

  /// decide() for the `offer`-th copy (1-based) at one member of a row.
  template <typename Draws>
  [[nodiscard]] std::size_t admit(std::size_t row, std::size_t member,
                                  std::uint64_t offer, Draws& draws) {
    return decide(count(row, member), offer, rows_[row].capacity, policy_,
                  draws);
  }
  /// Stores `value` in the slot admit() just returned.
  void store(std::size_t r, std::size_t member, std::size_t slot,
             T value) noexcept {
    Row& row = rows_[r];
    row.slots[member * row.capacity + slot] = std::move(value);
    if (slot == row.counts[member]) ++row.counts[member];
  }
  /// One member's records in a row, in slot order.
  [[nodiscard]] std::vector<T> records(std::size_t r,
                                       std::size_t member) const {
    const T* first = rows_[r].slots.data() + member * rows_[r].capacity;
    return std::vector<T>(first, first + count(r, member));
  }
  /// Removes only the first record satisfying `match`, shifting the later
  /// ones down a slot; returns whether one was found.
  template <typename Match>
  bool take_first(std::size_t r, std::size_t member, Match match) {
    Row& row = rows_[r];
    T* const first = row.slots.data() + member * row.capacity;
    T* const last = first + row.counts[member];
    T* const it = std::find_if(first, last, match);
    if (it == last) return false;
    std::move(it + 1, last, it);
    --row.counts[member];
    return true;
  }

  /// Records one row holds across its members.
  [[nodiscard]] std::size_t stored_in(std::size_t row) const noexcept {
    const std::vector<std::uint16_t>& counts = rows_[row].counts;
    return std::accumulate(counts.begin(), counts.end(), std::size_t{0});
  }
  /// Records held across every live row.
  [[nodiscard]] std::size_t stored() const noexcept {
    std::size_t n = 0;
    for (std::size_t r = 0; r < rows(); ++r) n += live(r) ? stored_in(r) : 0;
    return n;
  }

 private:
  /// Throws unless 1 <= capacity <= 0xFFFF (counts are 16-bit).
  static void check_capacity(std::size_t capacity) {
    if (capacity == 0 || capacity > 0xFFFF) {
      throw std::invalid_argument("RecordWindow: capacity out of range");
    }
  }

  struct Row {  // capacity 0: free
    std::uint32_t interval = 0;
    std::size_t capacity = 0;
    std::uint64_t offers = 0;
    std::vector<std::uint16_t> counts;  // per member
    std::vector<T> slots;               // member's block at member * capacity
  };

  std::vector<Row> rows_;
  std::size_t members_;
  BufferPolicy policy_;
  bool reserved_ = false;
};

/// One m-slot round under one policy: a one-row, one-member RecordWindow
/// (multi-level μTESLA and the kernel tests).
template <typename T>
class ReservoirBuffer {
 public:
  explicit ReservoirBuffer(std::size_t capacity,
                           BufferPolicy policy = BufferPolicy::kReservoir)
      : window_(1, 1, policy) {
    window_.row_for(0, capacity, 0);
  }

  /// Counts one offer and returns where it goes (kDiscard or a slot for
  /// store()), without needing the value yet.
  template <typename Draws>
  [[nodiscard]] std::size_t admit(Draws& draws) {
    return window_.admit(0, 0, ++window_.offers(0), draws);
  }
  /// Stores `value` in the slot admit() just returned.
  void store(std::size_t slot, T value) {
    window_.store(0, 0, slot, std::move(value));
  }
  /// admit() + store() with Rng draws; returns true if stored.
  bool offer(T value, common::Rng& rng) {
    RngDraws draws(rng);
    const std::size_t slot = admit(draws);
    if (slot != kDiscard) store(slot, std::move(value));
    return slot != kDiscard;
  }
  template <typename Match>
  bool take_first(Match match) {
    return window_.take_first(0, 0, match);
  }

  /// The stored records, in slot order.
  [[nodiscard]] std::vector<T> contents() const {
    return window_.records(0, 0);
  }
  [[nodiscard]] std::uint64_t offers() const noexcept {
    return window_.offers(0);
  }
  [[nodiscard]] bool empty() const noexcept { return window_.count(0, 0) == 0; }

 private:
  RecordWindow<T> window_;
};

}  // namespace dap::tesla
