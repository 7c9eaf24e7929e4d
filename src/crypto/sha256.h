#pragma once
// SHA-256 (FIPS 180-4), implemented from scratch.
//
// This is the single cryptographic hash underlying every primitive in the
// library: HMAC, one-way key chains, the pseudorandom function H used by
// EDRP, and the WOTS one-time signature. The streaming interface supports
// incremental input; `sha256()` is the one-shot convenience.
//
// The backend dispatch lives here too, so both the streaming path and the
// batched entry points (crypto/sha256_batch.h) read one selection.
// Runtime CPUID picks the strongest of SHA-NI → AVX2 → SSE2 → scalar,
// overridable via the `DAP_CRYPTO_BACKEND` environment variable
// (`scalar` | `sse2` | `avx2` | `shani`, clamped to what the host/build
// supports) and programmatically via `force_sha256_backend()` for tests.
// The streaming `Sha256` uses the SHA-NI kernel only under `shani`; every
// other backend keeps it on the portable C `sha256_compress`, so
// `scalar` means "portable C everywhere".

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/bytes.h"

namespace dap::crypto {

inline constexpr std::size_t kSha256DigestSize = 32;
inline constexpr std::size_t kSha256BlockSize = 64;

using Digest = std::array<std::uint8_t, kSha256DigestSize>;

/// Compression-function state captured after absorbing a whole number of
/// 64-byte blocks. A midstate is resumable: restoring it and absorbing
/// the rest of the stream yields the same digest as hashing the whole
/// stream from scratch. HMAC keys cache the ipad/opad midstates so each
/// MAC costs 2 compressions instead of 4 (see crypto/hmac.h), and the
/// batched backend (crypto/sha256_batch.h) seeds its lanes from them.
struct Sha256Midstate {
  std::array<std::uint32_t, 8> state{};
  std::uint64_t bytes = 0;  // absorbed so far; always a multiple of 64
};

/// Ordered weakest to strongest: clamping an unsupported request walks
/// down this order, and auto-detection picks the highest supported value.
enum class Sha256Backend : std::uint8_t {
  kScalar = 0,  // portable C reference, 1 lane
  kSse2 = 1,    // 4 lanes (baseline x86-64; scalar elsewhere)
  kAvx2 = 2,    // 8 lanes (requires DAP_SIMD build + host support)
  kShaNi = 3,   // 1 lane on the SHA extensions (DAP_SIMD build, x86-64)
};

/// Stable lowercase name ("scalar" / "sse2" / "avx2" / "shani").
[[nodiscard]] std::string_view backend_name(Sha256Backend backend) noexcept;

/// Lanes the backend compresses in lockstep (1 / 4 / 8 / 1).
[[nodiscard]] std::size_t backend_lanes(Sha256Backend backend) noexcept;

/// The backend in use: the test override if set, else the
/// `DAP_CRYPTO_BACKEND` environment override (clamped to what is compiled
/// in and supported by the CPU), else CPUID auto-detection.
[[nodiscard]] Sha256Backend active_sha256_backend() noexcept;

/// Strongest backend this build + host can run (ignores overrides).
[[nodiscard]] Sha256Backend best_supported_sha256_backend() noexcept;

/// Every backend this build + host can run, weakest first.
[[nodiscard]] std::vector<Sha256Backend> supported_sha256_backends();

/// Pins the backend for tests (clamped to what is supported). Digests are
/// backend-independent, so this only changes *how* they are computed.
void force_sha256_backend(Sha256Backend backend) noexcept;

/// Removes the force_sha256_backend override.
void clear_sha256_backend_override() noexcept;

/// The kernel the streaming path runs under the active backend: kShaNi
/// when that is the active backend, else kScalar (`sha256_compress`).
[[nodiscard]] Sha256Backend streaming_sha256_backend() noexcept;

/// The FIPS 180-4 initial chaining value (H^(0)) as a midstate.
[[nodiscard]] Sha256Midstate sha256_initial_midstate() noexcept;

/// One application of the SHA-256 compression function: folds a 64-byte
/// block into `state` in place. This scalar routine is the reference
/// oracle every batched backend is tested against bit-for-bit.
void sha256_compress(std::uint32_t state[8],
                     const std::uint8_t* block) noexcept;

/// Folds `nblocks` consecutive 64-byte blocks into `state` with the
/// streaming kernel (see streaming_sha256_backend()).
void sha256_compress_blocks(std::uint32_t state[8], const std::uint8_t* data,
                            std::size_t nblocks) noexcept;

class Sha256 {
 public:
  Sha256() noexcept;

  /// Absorbs more input; may be called any number of times.
  void update(common::ByteView data) noexcept;

  /// Finalizes and returns the digest. The object must not be reused
  /// afterwards except via reset().
  Digest finalize() noexcept;

  /// Returns the object to its freshly-constructed state.
  void reset() noexcept;

  /// Captures the current compression state. Only valid on block
  /// boundaries (no partial input buffered) — the buffered tail would be
  /// lost. Checked by contract in the implementation.
  [[nodiscard]] Sha256Midstate midstate() const noexcept;

  /// Restores a previously captured midstate: the object behaves as if
  /// it had just absorbed `ms.bytes` bytes of the original stream.
  void restore(const Sha256Midstate& ms) noexcept;

 private:
  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

/// One-shot SHA-256 of `data`.
Digest sha256(common::ByteView data) noexcept;

/// One-shot SHA-256 returned as a Bytes buffer (for APIs that splice it).
common::Bytes sha256_bytes(common::ByteView data);

}  // namespace dap::crypto
