#include "crypto/prf.h"

#include <array>
#include <cstring>
#include <stdexcept>

#include "common/contracts.h"
#include "crypto/hmac.h"
#include "obs/scoped_timer.h"

namespace dap::crypto {

namespace {
struct PrfTelemetry {
  obs::CounterHandle calls;
  obs::HistogramHandle latency;
};

// Re-resolved per effective registry so shard overrides (parallel runs)
// never see handles minted against a different registry.
const PrfTelemetry& prf_telemetry() {
  thread_local obs::PerRegistryCache<PrfTelemetry> cache;
  return cache.get([](obs::Registry& reg) {
    return PrfTelemetry{reg.counter("crypto.prf_calls"),
                        reg.histogram("crypto.prf_us")};
  });
}

// Counters only: a walk registers no latency histogram it never writes.
struct PrfStepTelemetry {
  obs::CounterHandle prf_calls;
  obs::CounterHandle hmac_calls;
  obs::CounterHandle hmac_midstate_hits;
};

const PrfStepTelemetry& prf_step_telemetry() {
  thread_local obs::PerRegistryCache<PrfStepTelemetry> cache;
  return cache.get([](obs::Registry& reg) {
    return PrfStepTelemetry{reg.counter("crypto.prf_calls"),
                            reg.counter("crypto.hmac_calls"),
                            reg.counter("crypto.hmac_midstate_hits")};
  });
}

void store_digest(const std::array<std::uint32_t, 8>& state,
                  std::uint8_t* out) noexcept {
  for (std::size_t v = 0; v < 8; ++v) {
    out[4 * v] = static_cast<std::uint8_t>(state[v] >> 24);
    out[4 * v + 1] = static_cast<std::uint8_t>(state[v] >> 16);
    out[4 * v + 2] = static_cast<std::uint8_t>(state[v] >> 8);
    out[4 * v + 3] = static_cast<std::uint8_t>(state[v]);
  }
}
}  // namespace

std::string_view domain_label(PrfDomain domain) noexcept {
  switch (domain) {
    case PrfDomain::kChainStep:
      return "F/chain-step";
    case PrfDomain::kHighChainStep:
      return "F0/high-chain-step";
    case PrfDomain::kLowChainStep:
      return "F1/low-chain-step";
    case PrfDomain::kLevelConnect:
      return "F01/level-connect";
    case PrfDomain::kMacKey:
      return "F'/mac-key";
    case PrfDomain::kCdmImage:
      return "H/cdm-image";
    case PrfDomain::kReceiverLocal:
      return "K_recv/receiver-local";
  }
  return "unknown";
}

const HmacKey& prf_key(PrfDomain domain) noexcept {
  // Domain labels never change, so the seven pad midstates are computed
  // exactly once per process. Initialization is thread-safe (magic
  // statics) and the array is immutable afterwards.
  static const std::array<HmacKey, 7> keys = [] {
    std::array<HmacKey, 7> out;
    for (std::uint8_t d = 0; d < 7; ++d) {
      const std::string_view label = domain_label(static_cast<PrfDomain>(d));
      out[d] = HmacKey(common::ByteView(
          reinterpret_cast<const std::uint8_t*>(label.data()), label.size()));
    }
    return out;
  }();
  const auto index = static_cast<std::size_t>(domain);
  return keys[index < keys.size() ? index : 0];
}

Digest prf(PrfDomain domain, common::ByteView input) noexcept {
  const PrfTelemetry& telemetry = prf_telemetry();
  obs::Registry::global().add(telemetry.calls);
  thread_local obs::SampleSite site;
  const obs::SampledTimer timer(telemetry.latency, site);
  // HMAC keyed by the domain label: distinct labels yield computationally
  // independent functions of the same input. The cached per-domain key
  // skips the per-call ipad/opad recomputation.
  return prf_key(domain).mac(input);
}

common::Bytes prf_bytes(PrfDomain domain, common::ByteView input,
                        std::size_t out_len) {
  if (out_len == 0 || out_len > kSha256DigestSize) {
    throw std::invalid_argument("prf_bytes: out_len must be in [1, 32]");
  }
  const Digest d = prf(domain, input);
  return common::Bytes(d.begin(), d.begin() + static_cast<std::ptrdiff_t>(out_len));
}

std::array<std::uint8_t, kSha256BlockSize> prf_tail_block(
    std::size_t len) noexcept {
  std::array<std::uint8_t, kSha256BlockSize> block{};
  block[len] = 0x80;
  const std::uint64_t bits = (kSha256BlockSize + len) * 8;
  for (std::size_t i = 0; i < 8; ++i) {
    block[kSha256BlockSize - 8 + i] =
        static_cast<std::uint8_t>(bits >> (56 - 8 * i));
  }
  return block;
}

void prf_walk(PrfDomain domain, common::ByteView start, std::size_t key_size,
              std::span<std::uint8_t> trajectory) {
  DAP_REQUIRE(key_size >= 1 && key_size <= kSha256DigestSize,
              "prf_walk: key_size must be in [1, 32]");
  DAP_REQUIRE(start.size() == key_size && trajectory.size() % key_size == 0,
              "prf_walk: start and trajectory must hold whole keys");
  const HmacKey& key = prf_key(domain);
  auto inner = prf_tail_block(key_size);
  auto outer = prf_tail_block(kSha256DigestSize);
  std::memcpy(inner.data(), start.data(), key_size);
  for (std::size_t at = 0; at < trajectory.size(); at += key_size) {
    std::array<std::uint32_t, 8> state = key.inner_midstate().state;
    sha256_compress_blocks(state.data(), inner.data(), 1);
    store_digest(state, outer.data());
    state = key.outer_midstate().state;
    sha256_compress_blocks(state.data(), outer.data(), 1);
    Digest digest;
    store_digest(state, digest.data());
    std::memcpy(trajectory.data() + at, digest.data(), key_size);
    std::memcpy(inner.data(), digest.data(), key_size);
  }
}

void count_prf_steps(std::uint64_t steps) {
  const PrfStepTelemetry& telemetry = prf_step_telemetry();
  obs::Registry& reg = obs::Registry::global();
  reg.add(telemetry.prf_calls, steps);
  reg.add(telemetry.hmac_calls, steps);
  reg.add(telemetry.hmac_midstate_hits, steps);
}

}  // namespace dap::crypto
