#include "tesla/chain_auth.h"

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
  // rejected_ counts reveals *proven* inconsistent with the chain, on
  // every mismatch path (anchor, below-anchor, above-anchor walk).
  // Malformed (empty) keys and pruned indices return false uncounted:
  // neither is evidence of forgery — one is a framing error, the other
  // is unverifiable, exactly as a cache miss was before checkpointing.
  if (key.empty()) return false;
  if (i == anchor_index_) {
    // The anchor survives any prune, so it always verifies directly.
    if (!common::constant_time_equal(anchor_key_, key)) {
      ++rejected_;
      return false;
    }
    return true;
  }
  if (i < anchor_index_) {
    // Below-anchor reveals re-derive the authentic key instead of
    // looking it up.
    if (i < floor_index_) return false;
    if (!common::constant_time_equal(derive(i), key)) {
      ++rejected_;
      return false;
    }
    return true;
  }
  // One downward pass from the candidate to the anchor: verifies the
  // chain AND collects the checkpoints, where the pre-checkpoint code
  // paid a second full walk to populate its every-key cache.
  const std::uint32_t old_anchor = anchor_index_;
  std::vector<std::pair<std::uint32_t, common::Bytes>> checkpoints;
  common::Bytes current(key.begin(), key.end());
  for (std::uint32_t j = i; j > old_anchor; --j) {
    if (j == i || j % stride_ == 0) {
      checkpoints.emplace_back(j, current);
    }
    current = crypto::chain_walk(domain_, current, 1, key_size_);
    ++walk_steps_;
  }
  if (!common::constant_time_equal(current, anchor_key_)) {
    ++rejected_;
    return false;
  }
  for (auto& [index, checkpoint_key] : checkpoints) {
    known_[index] = std::move(checkpoint_key);
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

std::vector<bool> ChainAuthenticator::accept_many(
    std::span<const KeyReveal> reveals) {
  std::vector<bool> verdicts;
  verdicts.reserve(reveals.size());

  // Phase 1: walk every unique above-anchor candidate of the chain's key
  // size down to the *pre-batch* anchor through the multi-lane backend,
  // capturing the full trajectory (value after every step). Candidates
  // of any other size (malformed/adversarial) fall back to the scalar
  // accept() during replay, so outcomes stay exact.
  const std::uint32_t anchor0 = anchor_index_;
  std::map<std::pair<std::uint32_t, common::Bytes>, std::size_t> unique_of;
  std::vector<common::Bytes> starts;
  std::vector<std::uint32_t> gaps;
  for (const KeyReveal& r : reveals) {
    if (r.key.empty() || r.interval <= anchor0) continue;
    if (r.key.size() != key_size_) continue;
    common::Bytes key(r.key.begin(), r.key.end());
    const auto [it, inserted] =
        unique_of.try_emplace({r.interval, std::move(key)}, starts.size());
    if (inserted) {
      starts.push_back(it->first.second);
      gaps.push_back(r.interval - anchor0);
    }
  }
  std::vector<common::Bytes> traj;
  if (!starts.empty()) {
    crypto::prf_walk_many(domain_, starts, gaps, key_size_, traj);
    for (const std::uint32_t gap : gaps) walk_steps_ += gap;
  }

  // Phase 2: replay the queue in order. This is accept()'s exact logic,
  // with every chain step replaced by a trajectory lookup: the value j
  // steps below candidate K_i is key j - 1 of traj[u], so the compare
  // against the *current* anchor (which earlier accepts in this very
  // batch may have advanced) is key i - anchor - 1.
  for (const KeyReveal& r : reveals) {
    const std::uint32_t i = r.interval;
    if (r.key.empty()) {
      verdicts.push_back(false);
      continue;
    }
    if (i == anchor_index_) {
      const bool ok = common::constant_time_equal(anchor_key_, r.key);
      if (!ok) ++rejected_;
      verdicts.push_back(ok);
      continue;
    }
    if (i < anchor_index_) {
      if (i < floor_index_) {
        verdicts.push_back(false);
        continue;
      }
      const bool ok = common::constant_time_equal(derive(i), r.key);
      if (!ok) ++rejected_;
      verdicts.push_back(ok);
      continue;
    }
    const auto it =
        unique_of.find({i, common::Bytes(r.key.begin(), r.key.end())});
    if (it == unique_of.end()) {
      // Key size mismatch: the scalar path handles it bit-for-bit.
      verdicts.push_back(accept(i, r.key));
      continue;
    }
    const common::ByteView t(traj[it->second]);
    const auto below = [&](std::uint32_t steps) {
      return t.subspan(std::size_t{steps - 1} * key_size_, key_size_);
    };
    const std::uint32_t old_anchor = anchor_index_;
    const std::uint32_t gap_now = i - old_anchor;
    DAP_INVARIANT(gap_now >= 1 && gap_now <= t.size() / key_size_,
                  "accept_many: trajectory must reach the current anchor");
    if (!common::constant_time_equal(below(gap_now), anchor_key_)) {
      ++rejected_;
      verdicts.push_back(false);
      continue;
    }
    for (std::uint32_t j = i; j > old_anchor; --j) {
      if (j == i || j % stride_ == 0) {
        const common::ByteView k = j == i ? r.key : below(i - j);
        known_[j] = common::Bytes(k.begin(), k.end());
      }
    }
    anchor_index_ = i;
    anchor_key_ = known_[i];
    ++accepted_;
    DAP_ENSURE(anchor_index_ > old_anchor,
               "ChainAuthenticator: anchor index must advance monotonically");
    DAP_ENSURE(known_.count(anchor_index_) == 1,
               "ChainAuthenticator: accepted key missing from the cache");
    verdicts.push_back(true);
  }
  return verdicts;
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

void ChainAuthenticator::prune_below(std::uint32_t floor) {
  if (floor > floor_index_) floor_index_ = floor;
  auto it = known_.begin();
  while (it != known_.end() && it->first < floor) {
    if (it->first == anchor_index_) break;
    it = known_.erase(it);
  }
}

}  // namespace dap::tesla
