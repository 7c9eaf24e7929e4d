#pragma once
// Per-reveal verification outcomes.
//
// Receivers across the protocol family reach the same small set of
// outcomes when judging a (M_i, K_i, i) reveal; naming them lets the
// fleet layer tag verify spans with the reject reason instead of a
// bare accept/reject bit. An accepted reveal yields an
// AuthenticatedMessage.

#include <cstdint>
#include <string_view>

#include "common/bytes.h"
#include "sim/time.h"

namespace dap::tesla {

/// A message the receiver has fully authenticated, tagged with the
/// interval it was sent in and the local time authentication completed.
struct AuthenticatedMessage {
  std::uint32_t interval = 0;
  common::Bytes message;
  sim::SimTime authenticated_at = 0;

  bool operator==(const AuthenticatedMessage&) const = default;
};

enum class RevealVerdict : std::uint8_t {
  kAccepted,      // weak + strong authentication both passed
  kWeakAuthFail,  // disclosed key failed the one-way-chain walk
  kNoRecord,      // key fine, but no buffered uMAC record matched
  kKeyPruned,     // per-interval MAC key no longer derivable/retained
};

[[nodiscard]] constexpr std::string_view reveal_verdict_name(
    RevealVerdict verdict) noexcept {
  switch (verdict) {
    case RevealVerdict::kAccepted:
      return "accepted";
    case RevealVerdict::kWeakAuthFail:
      return "weak_auth_fail";
    case RevealVerdict::kNoRecord:
      return "no_record";
    case RevealVerdict::kKeyPruned:
      return "key_pruned";
  }
  return "unknown";
}

}  // namespace dap::tesla
