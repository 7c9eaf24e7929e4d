#pragma once
// HMAC-SHA-256 (RFC 2104 / FIPS 198-1) built on the local SHA-256.
//
// HMAC is the MAC primitive of every protocol here: TESLA's per-packet
// MAC_{K_i}(M), DAP's receiver-side re-MAC MAC_{K_recv}(MAC_i), and the
// CDM MACs of multi-level μTESLA.

#include "common/bytes.h"
#include "crypto/sha256.h"

namespace dap::crypto {

/// Precomputed HMAC key: caches the ipad/opad midstates so each MAC under
/// a reused key costs 2 SHA-256 compressions (short messages) instead of
/// the 4 a from-scratch `hmac_sha256` pays. Intended for long-lived keys —
/// `K_recv`, per-interval MAC keys derived once per drain, and the PRF
/// domain labels (crypto/prf.h caches one per domain). Trivially copyable;
/// fine to keep in maps keyed by interval.
///
/// Each MAC it computes still counts toward `crypto.hmac_calls`, and
/// additionally toward `crypto.hmac_midstate_hits`, so the pad-recompute
/// savings are observable in telemetry.
class HmacKey {
 public:
  HmacKey() noexcept = default;
  explicit HmacKey(common::ByteView key) noexcept;

  /// Full 32-byte tag; identical to `hmac_sha256(key, message)`.
  [[nodiscard]] Digest mac(common::ByteView message) const noexcept;

  /// Midstates after absorbing the ipad/opad block (bytes == 64). The
  /// batched backend (crypto/sha256_batch.h) seeds its lanes from these.
  [[nodiscard]] const Sha256Midstate& inner_midstate() const noexcept {
    return inner_;
  }
  [[nodiscard]] const Sha256Midstate& outer_midstate() const noexcept {
    return outer_;
  }

 private:
  Sha256Midstate inner_{};
  Sha256Midstate outer_{};
};

/// Full 32-byte HMAC-SHA-256 tag.
Digest hmac_sha256(common::ByteView key, common::ByteView message) noexcept;

}  // namespace dap::crypto
