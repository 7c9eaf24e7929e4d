#include "tesla/chain_auth.h"

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/contracts.h"
#include "crypto/sha256_batch.h"

namespace dap::tesla {

ChainAuthenticator::ChainAuthenticator(crypto::PrfDomain domain,
                                       std::size_t key_size,
                                       common::Bytes commitment,
                                       std::uint32_t anchor_index,
                                       std::uint32_t checkpoint_stride)
    : domain_(domain),
      key_size_(key_size),
      stride_(checkpoint_stride == 0 ? 1 : checkpoint_stride),
      anchor_index_(anchor_index),
      floor_index_(anchor_index),
      anchor_key_(std::move(commitment)) {
  if (anchor_key_.empty()) {
    throw std::invalid_argument("ChainAuthenticator: empty commitment");
  }
  if (key_size_ == 0) {
    throw std::invalid_argument("ChainAuthenticator: key_size must be >= 1");
  }
  known_[anchor_index_] = anchor_key_;
}

bool ChainAuthenticator::accept(std::uint32_t i, common::ByteView key) {
  // One downward pass from the candidate to the anchor: verifies the
  // chain AND yields the checkpoints the judge installs.
  common::Bytes trajectory;
  if (key.size() == key_size_ && i > anchor_index_) {
    trajectory.resize(std::size_t{i - anchor_index_} * key_size_);
    crypto::chain_walk_trajectory(domain_, key, key_size_, trajectory);
    walk_steps_ += i - anchor_index_;
  }
  return judge(i, key, trajectory);
}

std::vector<bool> ChainAuthenticator::accept_many(
    std::span<const KeyReveal> reveals) {
  // Walk every unique above-anchor candidate of the chain's key size
  // down to the *pre-batch* anchor through the multi-lane backend,
  // capturing the full trajectory (value after every step). Earlier
  // accepts in this batch may advance the anchor, which only shortens
  // the part of a trajectory the judge reads.
  constexpr std::size_t kNoWalk = SIZE_MAX;
  const std::uint32_t anchor0 = anchor_index_;
  std::map<std::pair<std::uint32_t, common::Bytes>, std::size_t> unique_of;
  std::vector<std::size_t> walk_of(reveals.size(), kNoWalk);
  std::vector<common::Bytes> starts;
  std::vector<std::uint32_t> gaps;
  for (std::size_t k = 0; k < reveals.size(); ++k) {
    const KeyReveal& r = reveals[k];
    if (r.key.size() != key_size_ || r.interval <= anchor0) continue;
    common::Bytes key(r.key.begin(), r.key.end());
    const auto [it, inserted] =
        unique_of.try_emplace({r.interval, std::move(key)}, starts.size());
    if (inserted) {
      starts.push_back(it->first.second);
      gaps.push_back(r.interval - anchor0);
    }
    walk_of[k] = it->second;
  }
  std::vector<common::Bytes> traj;
  if (!starts.empty()) {
    crypto::prf_walk_many(domain_, starts, gaps, key_size_, traj);
    for (const std::uint32_t gap : gaps) walk_steps_ += gap;
  }

  std::vector<bool> verdicts;
  verdicts.reserve(reveals.size());
  for (std::size_t k = 0; k < reveals.size(); ++k) {
    const common::ByteView t =
        walk_of[k] == kNoWalk ? common::ByteView{} : traj[walk_of[k]];
    verdicts.push_back(judge(reveals[k].interval, reveals[k].key, t));
  }
  return verdicts;
}

bool ChainAuthenticator::judge(std::uint32_t i, common::ByteView key,
                               common::ByteView trajectory) {
  // rejected_ counts reveals *proven* inconsistent with the chain, on
  // every mismatch path (size, anchor, below-anchor, above-anchor walk).
  // Malformed (empty) keys and indices below the floor return false
  // uncounted: neither is evidence of forgery — one is a framing error,
  // the other is unverifiable.
  if (key.empty() || i < floor_index_) return false;
  const std::uint32_t old_anchor = anchor_index_;
  // The value `steps` one-way steps below the candidate K_i.
  const auto below = [&](std::uint32_t steps) {
    return trajectory.subspan(std::size_t{steps - 1} * key_size_, key_size_);
  };
  const auto consistent = [&] {
    if (key.size() != key_size_) return false;  // no chain key has this size
    // The anchor always verifies directly; below it the authentic key is
    // re-derived from the nearest checkpoint instead of looked up.
    if (i == old_anchor) return common::constant_time_equal(anchor_key_, key);
    if (i < old_anchor) return common::constant_time_equal(derive(i), key);
    DAP_INVARIANT(i - old_anchor <= trajectory.size() / key_size_,
                  "ChainAuthenticator: trajectory must reach the anchor");
    return common::constant_time_equal(below(i - old_anchor), anchor_key_);
  };
  if (!consistent()) {
    ++rejected_;
    return false;
  }
  if (i <= old_anchor) return true;
  for (std::uint32_t j = i; j > old_anchor; --j) {
    if (j == i || j % stride_ == 0) {
      const common::ByteView k = j == i ? key : below(i - j);
      known_[j] = common::Bytes(k.begin(), k.end());
    }
  }
  anchor_index_ = i;
  anchor_key_ = known_[i];
  ++accepted_;
  // The anchor only ever moves forward, and every interval between the
  // old and new anchor is now derivable from a cached checkpoint.
  DAP_ENSURE(anchor_index_ > old_anchor,
             "ChainAuthenticator: anchor index must advance monotonically");
  DAP_ENSURE(known_.count(anchor_index_) == 1,
             "ChainAuthenticator: accepted key missing from the cache");
  return true;
}

common::Bytes ChainAuthenticator::derive(std::uint32_t i) const {
  const auto it = known_.lower_bound(i);
  DAP_INVARIANT(it != known_.end(),
                "ChainAuthenticator::derive: no checkpoint at or above index");
  if (it->first == i) return it->second;
  const std::uint32_t gap = it->first - i;
  walk_steps_ += gap;
  return crypto::chain_walk(domain_, it->second, gap, key_size_);
}

std::optional<common::Bytes> ChainAuthenticator::key(std::uint32_t i) const {
  if (i == anchor_index_) return anchor_key_;
  if (i < floor_index_ || i > anchor_index_) return std::nullopt;
  return derive(i);
}

std::optional<common::Bytes> ChainAuthenticator::mac_key(
    std::uint32_t i) const {
  const auto k = key(i);
  if (!k) return std::nullopt;
  return crypto::prf_bytes(crypto::PrfDomain::kMacKey, *k);
}

void ChainAuthenticator::rebase_to_newest() {
  // accept() keeps the anchor at the newest authenticated key, so the
  // rebase only needs to drop the volatile checkpoints around it.
  known_.clear();
  known_[anchor_index_] = anchor_key_;
  floor_index_ = anchor_index_;
}

}  // namespace dap::tesla
