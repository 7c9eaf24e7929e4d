#include "crypto/prf.h"

#include <array>
#include <stdexcept>

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

}  // namespace dap::crypto
