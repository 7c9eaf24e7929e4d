// SHA-NI single-stream SHA-256 compression kernel.
//
// Compiled with -msha -msse4.1 (per-file, behind the DAP_SIMD build
// option, x86-64 only) and kept in its own translation unit so nothing
// else in the library is built with SHA-extension code generation — the
// dispatcher in sha256.cc only calls in here after CPUID reports SHA,
// SSSE3 and SSE4.1. One call folds a run of consecutive 64-byte blocks
// into one chaining state, so multi-block input pays the state shuffles
// once. No header of its own: the single entry point is declared by the
// dispatcher. It includes no project header either (hence its own
// round-constant table): an inline function pulled in here would be
// compiled with SHA/SSE4.1 code generation, and the linker may pick that
// copy for callers on hosts without those extensions.
//
// The SHA extensions keep the eight working variables as two vectors,
// ABEF and CDGH; sha256rnds2 runs two rounds, sha256msg1/msg2 run the
// message schedule four words at a time.

#include <cstddef>
#include <cstdint>

#if defined(DAP_CRYPTO_HAVE_SHANI)

#include <immintrin.h>

namespace dap::crypto::detail {

namespace {

alignas(16) constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

// Four big-endian message words W[4q..4q+3] from block bytes 16q..16q+15.
inline __m128i load_words(const std::uint8_t* p) noexcept {
  const __m128i bswap32 =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  return _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), bswap32);
}

// Rounds 4q..4q+3 on schedule words w = W[4q..4q+3].
inline void rounds4(__m128i& abef, __m128i& cdgh, __m128i w,
                    int q) noexcept {
  __m128i wk = _mm_add_epi32(
      w, _mm_load_si128(reinterpret_cast<const __m128i*>(kK + 4 * q)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  wk = _mm_shuffle_epi32(wk, 0x0E);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
}

// W[t..t+3] from the previous sixteen words, w0 = W[t-16..t-13] through
// w3 = W[t-4..t-1]: msg1 adds σ0, the alignr supplies W[t-7..t-4], msg2
// adds σ1.
inline __m128i schedule(__m128i w0, __m128i w1, __m128i w2,
                        __m128i w3) noexcept {
  const __m128i t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1),
                                  _mm_alignr_epi8(w3, w2, 4));
  return _mm_sha256msg2_epu32(t, w3);
}

}  // namespace

void sha256_compress_shani(std::uint32_t state[8], const std::uint8_t* data,
                           std::size_t nblocks) noexcept {
  // Vector names list lanes highest first: state[0..7] = A..H is
  // repacked into abef and cdgh here and unpacked again after the loop.
  const __m128i cdab = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (std::size_t b = 0; b < nblocks; ++b, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w0 = load_words(data);
    __m128i w1 = load_words(data + 16);
    __m128i w2 = load_words(data + 32);
    __m128i w3 = load_words(data + 48);
    rounds4(abef, cdgh, w0, 0);
    rounds4(abef, cdgh, w1, 1);
    rounds4(abef, cdgh, w2, 2);
    rounds4(abef, cdgh, w3, 3);
    for (int q = 4; q < 16; q += 4) {
      w0 = schedule(w0, w1, w2, w3);
      rounds4(abef, cdgh, w0, q);
      w1 = schedule(w1, w2, w3, w0);
      rounds4(abef, cdgh, w1, q + 1);
      w2 = schedule(w2, w3, w0, w1);
      rounds4(abef, cdgh, w2, q + 2);
      w3 = schedule(w3, w0, w1, w2);
      rounds4(abef, cdgh, w3, q + 3);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));  // dcba
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));  // hgfe
}

}  // namespace dap::crypto::detail

#endif  // DAP_CRYPTO_HAVE_SHANI
