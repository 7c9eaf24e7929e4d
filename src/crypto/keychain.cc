#include "crypto/keychain.h"

#include <stdexcept>

#include "common/codec.h"
#include "common/contracts.h"
#include "obs/scoped_timer.h"

namespace dap::crypto {

namespace {
struct KeyChainTelemetry {
  obs::HistogramHandle build_latency;
  obs::HistogramHandle walk_latency;
  obs::CounterHandle walk_steps;
};

// Re-resolved per effective registry so shard overrides (parallel runs)
// never see handles minted against a different registry.
const KeyChainTelemetry& keychain_telemetry() {
  thread_local obs::PerRegistryCache<KeyChainTelemetry> cache;
  return cache.get([](obs::Registry& reg) {
    return KeyChainTelemetry{reg.histogram("crypto.keychain_build_us"),
                             reg.histogram("crypto.chain_walk_us"),
                             reg.counter("crypto.chain_walk_steps")};
  });
}
}  // namespace

KeyChain::KeyChain(common::ByteView seed, std::size_t length,
                   PrfDomain step_domain, std::size_t key_size)
    : domain_(step_domain), key_size_(key_size) {
  const obs::ScopedTimer timer(keychain_telemetry().build_latency);
  if (key_size_ == 0 || key_size_ > kSha256DigestSize) {
    throw std::invalid_argument("KeyChain: key_size must be in [1, 32]");
  }
  if (length == 0) {
    throw std::invalid_argument("KeyChain: length must be >= 1");
  }
  if (seed.empty()) {
    throw std::invalid_argument("KeyChain: empty seed");
  }
  keys_.resize(length + 1);
  // Seed becomes K_length; derive to key_size so the chain is uniform.
  // One walk down from it yields K_{length-1} .. K_0 in that order.
  keys_[length] = prf_bytes(domain_, seed, key_size_);
  common::Bytes trajectory(length * key_size_);
  prf_walk(domain_, keys_[length], key_size_, trajectory);
  count_prf_steps(length);
  for (std::size_t s = 0; s < length; ++s) {
    const std::uint8_t* at = trajectory.data() + s * key_size_;
    keys_[length - 1 - s].assign(at, at + key_size_);
  }
  DAP_ENSURE(keys_[0].size() == key_size_ && keys_[length].size() == key_size_,
             "KeyChain: every key must have the configured size");
}

const common::Bytes& KeyChain::key(std::size_t i) const {
  if (i >= keys_.size()) {
    throw std::out_of_range("KeyChain::key: index beyond chain length");
  }
  return keys_[i];
}

common::Bytes KeyChain::mac_key(std::size_t i) const {
  return prf_bytes(PrfDomain::kMacKey, key(i));
}

common::Bytes chain_walk(PrfDomain domain, common::ByteView key,
                         std::size_t steps, std::size_t key_size) {
  common::Bytes trajectory(steps * key_size);
  chain_walk_trajectory(domain, key, key_size, trajectory);
  if (steps == 0) return common::Bytes(key.begin(), key.end());
  trajectory.erase(trajectory.begin(),
                   trajectory.end() - static_cast<std::ptrdiff_t>(key_size));
  return trajectory;
}

void chain_walk_trajectory(PrfDomain domain, common::ByteView key,
                           std::size_t key_size,
                           std::span<std::uint8_t> trajectory) {
  DAP_REQUIRE(key.size() == key_size,
              "chain_walk: the start key must have size key_size");
  const std::size_t steps = trajectory.size() / key_size;
  const KeyChainTelemetry& telemetry = keychain_telemetry();
  obs::Registry::global().add(telemetry.walk_steps, steps);
  count_prf_steps(steps);
  thread_local obs::SampleSite site;
  const obs::SampledTimer timer(telemetry.walk_latency, site);
  prf_walk(domain, key, key_size, trajectory);
}

// Low-level chains are labelled by their anchor key plus the high interval
// index so two intervals never share a seed even under kEftp re-anchoring.
common::Bytes low_chain_seed(common::ByteView anchor_high_key,
                             std::size_t high_interval) {
  common::Writer w;
  w.raw(anchor_high_key);
  w.u64(static_cast<std::uint64_t>(high_interval));
  return prf_bytes(PrfDomain::kLevelConnect, w.data());
}

common::Bytes derive_low_key(common::ByteView anchor_high_key,
                             std::size_t high_interval, std::size_t j,
                             std::size_t low_length, std::size_t key_size) {
  if (j > low_length) {
    throw std::out_of_range("derive_low_key: j beyond chain length");
  }
  const common::Bytes seed = low_chain_seed(anchor_high_key, high_interval);
  // Mirrors KeyChain's construction: the seed maps to the LAST key.
  common::Bytes top = prf_bytes(PrfDomain::kLowChainStep, seed, key_size);
  return chain_walk(PrfDomain::kLowChainStep, top, low_length - j, key_size);
}

TwoLevelKeyChain::TwoLevelKeyChain(common::ByteView seed,
                                   std::size_t high_length,
                                   std::size_t low_length, LevelLink link,
                                   std::size_t key_size)
    // One extra high-level key so interval `high_length` still has a
    // K_{i+1} anchor under the original link mode.
    : high_(seed, high_length + 1, PrfDomain::kHighChainStep, key_size),
      low_length_(low_length),
      link_(link) {
  if (high_length == 0 || low_length == 0) {
    throw std::invalid_argument("TwoLevelKeyChain: lengths must be >= 1");
  }
  low_.reserve(high_length);
  for (std::size_t i = 1; i <= high_length; ++i) {
    low_.emplace_back(low_chain_seed(low_anchor_internal(i), i), low_length_,
                      PrfDomain::kLowChainStep, key_size);
  }
}

std::size_t TwoLevelKeyChain::high_length() const noexcept {
  return high_.length() - 1;  // the extra anchor key is not a usable interval
}

std::size_t TwoLevelKeyChain::key_size() const noexcept {
  return high_.key_size();
}

const common::Bytes& TwoLevelKeyChain::high_key(std::size_t i) const {
  if (i > high_length() + 1) {
    throw std::out_of_range("TwoLevelKeyChain::high_key");
  }
  return high_.key(i);
}

const common::Bytes& TwoLevelKeyChain::high_commitment() const {
  return high_.key(0);
}

common::Bytes TwoLevelKeyChain::high_mac_key(std::size_t i) const {
  return prf_bytes(PrfDomain::kMacKey, high_key(i));
}

const common::Bytes& TwoLevelKeyChain::low_key(std::size_t i,
                                               std::size_t j) const {
  if (i == 0 || i > high_length()) {
    throw std::out_of_range("TwoLevelKeyChain::low_key: high interval");
  }
  return low_[i - 1].key(j);
}

common::Bytes TwoLevelKeyChain::low_mac_key(std::size_t i,
                                            std::size_t j) const {
  return prf_bytes(PrfDomain::kMacKey, low_key(i, j));
}

const common::Bytes& TwoLevelKeyChain::low_anchor(std::size_t i) const {
  if (i == 0 || i > high_length()) {
    throw std::out_of_range("TwoLevelKeyChain::low_anchor");
  }
  return low_anchor_internal(i);
}

const common::Bytes& TwoLevelKeyChain::low_anchor_internal(
    std::size_t i) const {
  return link_ == LevelLink::kOriginal ? high_.key(i + 1) : high_.key(i);
}

}  // namespace dap::crypto
