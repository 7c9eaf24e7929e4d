#pragma once
// Domain-separated pseudorandom functions.
//
// TESLA-family protocols need several *independent* one-way functions from
// the same primitive: F0 (high-level chain step), F1 (low-level chain
// step), F01 (level-connecting function; re-targeted by EFTP), F' (MAC-key
// derivation, so the chain key itself is never used directly as a MAC
// key), and H (the CDM image function of EDRP). Independence is obtained
// by HMAC with a fixed per-domain label, which is the standard PRF
// construction.
// `prf_walk` is the one portable chain step every key chain walk runs;
// only the AVX2 lockstep kernel (crypto/sha256_batch.h) differs.

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

#include "common/bytes.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace dap::crypto {

/// The distinct one-way function domains used across the protocol family.
enum class PrfDomain : std::uint8_t {
  kChainStep = 0,       // F  : TESLA / μTESLA single-level chain
  kHighChainStep = 1,   // F0 : multi-level high-level chain
  kLowChainStep = 2,    // F1 : multi-level low-level chain
  kLevelConnect = 3,    // F01: connects high-level key to a low-level chain
  kMacKey = 4,          // F' : derives the MAC key from a chain key
  kCdmImage = 5,        // H  : EDRP's CDM commitment image
  kReceiverLocal = 6,   // derives per-receiver local secrets (K_recv)
};

/// Human-readable label for a domain (used in traces/tests).
std::string_view domain_label(PrfDomain domain) noexcept;

/// The precomputed HMAC key for `domain`. Domain labels are compile-time
/// constants, so the ipad/opad midstates are computed once per process and
/// every PRF evaluation (chain steps, key derivation, CDM images) pays 2
/// compressions instead of 4. The batched backend seeds its lanes from
/// these same midstates (crypto/sha256_batch.h).
const HmacKey& prf_key(PrfDomain domain) noexcept;

/// PRF_domain(input): 32-byte one-way image of `input` under `domain`.
Digest prf(PrfDomain domain, common::ByteView input) noexcept;

/// Same, as a Bytes buffer truncated/kept at `out_len` bytes (<= 32).
/// Throws std::invalid_argument if out_len > 32 or 0.
common::Bytes prf_bytes(PrfDomain domain, common::ByteView input,
                        std::size_t out_len = kSha256DigestSize);

/// Final block of one HMAC half of a chain step over a `len`-byte (<= 32)
/// message after the pad block: message space, 0x80, then the bit length.
std::array<std::uint8_t, kSha256BlockSize> prf_tail_block(
    std::size_t len) noexcept;

/// Writes the value after s + 1 applications of prf_bytes(domain, .,
/// key_size) to the key_size-byte `start` into bytes [s * key_size,
/// (s + 1) * key_size) of `trajectory`. A step is two compressions on fixed
/// tail blocks resumed from prf_key(domain)'s midstates. Counts nothing.
void prf_walk(PrfDomain domain, common::ByteView start, std::size_t key_size,
              std::span<std::uint8_t> trajectory);

/// Adds `steps` to crypto.prf_calls, crypto.hmac_calls and
/// crypto.hmac_midstate_hits: what `steps` prf_bytes calls would count.
void count_prf_steps(std::uint64_t steps);

}  // namespace dap::crypto
