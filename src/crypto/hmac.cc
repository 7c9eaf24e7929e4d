#include "crypto/hmac.h"

#include <array>

#include "obs/scoped_timer.h"

namespace dap::crypto {

namespace {
constexpr std::size_t kBlockSize = 64;

// Per-packet verification cost lives here; handles are re-resolved per
// effective registry so shard overrides (parallel runs) stay valid.
struct HmacTelemetry {
  obs::CounterHandle calls;
  obs::CounterHandle midstate_hits;
  obs::HistogramHandle latency;
};

const HmacTelemetry& hmac_telemetry() {
  thread_local obs::PerRegistryCache<HmacTelemetry> cache;
  return cache.get([](obs::Registry& reg) {
    return HmacTelemetry{reg.counter("crypto.hmac_calls"),
                         reg.counter("crypto.hmac_midstate_hits"),
                         reg.histogram("crypto.hmac_us")};
  });
}

// Normalizes `key` into one 64-byte block (hash-then-pad for long keys).
std::array<std::uint8_t, kBlockSize> normalize_key(common::ByteView key) {
  std::array<std::uint8_t, kBlockSize> key_block{};
  if (key.size() > kBlockSize) {
    const Digest hashed = sha256(key);
    std::copy(hashed.begin(), hashed.end(), key_block.begin());
  } else {
    std::copy(key.begin(), key.end(), key_block.begin());
  }
  return key_block;
}

// Midstate after absorbing (key_block ^ pad) — one compression, done
// once per HmacKey instead of once per MAC.
Sha256Midstate pad_midstate(
    const std::array<std::uint8_t, kBlockSize>& key_block,
    std::uint8_t pad) noexcept {
  std::array<std::uint8_t, kBlockSize> block;
  for (std::size_t i = 0; i < kBlockSize; ++i) {
    block[i] = static_cast<std::uint8_t>(key_block[i] ^ pad);
  }
  Sha256Midstate ms = sha256_initial_midstate();
  sha256_compress_blocks(ms.state.data(), block.data(), 1);
  ms.bytes = kSha256BlockSize;
  return ms;
}
}  // namespace

HmacKey::HmacKey(common::ByteView key) noexcept {
  const std::array<std::uint8_t, kBlockSize> key_block = normalize_key(key);
  inner_ = pad_midstate(key_block, 0x36);
  outer_ = pad_midstate(key_block, 0x5c);
}

Digest HmacKey::mac(common::ByteView message) const noexcept {
  const HmacTelemetry& telemetry = hmac_telemetry();
  obs::Registry::global().add(telemetry.calls);
  obs::Registry::global().add(telemetry.midstate_hits);
  thread_local obs::SampleSite site;
  const obs::SampledTimer timer(telemetry.latency, site);
  Sha256 h;
  h.restore(inner_);
  h.update(message);
  const Digest inner_digest = h.finalize();
  h.restore(outer_);
  h.update(common::ByteView(inner_digest.data(), inner_digest.size()));
  return h.finalize();
}

Digest hmac_sha256(common::ByteView key, common::ByteView message) noexcept {
  const HmacTelemetry& telemetry = hmac_telemetry();
  obs::Registry::global().add(telemetry.calls);
  thread_local obs::SampleSite site;
  const obs::SampledTimer timer(telemetry.latency, site);
  const std::array<std::uint8_t, kBlockSize> key_block = normalize_key(key);

  std::array<std::uint8_t, kBlockSize> ipad;
  std::array<std::uint8_t, kBlockSize> opad;
  for (std::size_t i = 0; i < kBlockSize; ++i) {
    ipad[i] = static_cast<std::uint8_t>(key_block[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(key_block[i] ^ 0x5c);
  }

  Sha256 inner;
  inner.update(common::ByteView(ipad.data(), ipad.size()));
  inner.update(message);
  const Digest inner_digest = inner.finalize();

  Sha256 outer;
  outer.update(common::ByteView(opad.data(), opad.size()));
  outer.update(common::ByteView(inner_digest.data(), inner_digest.size()));
  return outer.finalize();
}

}  // namespace dap::crypto
