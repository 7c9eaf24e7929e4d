// AVX2 8-lane SHA-256 compression kernel.
//
// Compiled with -mavx2 (per-file, behind the DAP_SIMD build option) and
// kept in its own translation unit so nothing else in the library is
// built with AVX2 code generation — the dispatcher in sha256_batch.cc
// only calls in here after __builtin_cpu_supports("avx2") says the host
// can run it. One 32-bit AVX2 lane carries one independent message
// schedule; all eight advance one 64-byte block in lockstep. No header
// of its own: the single entry point is declared by the dispatcher.

#include <cstdint>

#if defined(DAP_CRYPTO_HAVE_AVX2)

#include <immintrin.h>

namespace dap::crypto::detail {

namespace {

constexpr std::uint32_t kK[64] = {
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

inline std::uint32_t load_be32(const std::uint8_t* p) noexcept {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

inline __m256i rotr32x8(__m256i x, int n) noexcept {
  return _mm256_or_si256(_mm256_srli_epi32(x, n),
                         _mm256_slli_epi32(x, 32 - n));
}

}  // namespace

// The contract of sha256_compress_lanes (crypto/sha256_batch.h):
// `states` is lane-major (states[lane * 8 + word]); each of the 8 blocks
// advances one compression.
void sha256_compress_x8(std::uint32_t* states,
                        const std::uint8_t* const* blocks) noexcept {
  __m256i w[64];
  for (int t = 0; t < 16; ++t) {
    w[t] = _mm256_set_epi32(
        static_cast<int>(load_be32(blocks[7] + 4 * t)),
        static_cast<int>(load_be32(blocks[6] + 4 * t)),
        static_cast<int>(load_be32(blocks[5] + 4 * t)),
        static_cast<int>(load_be32(blocks[4] + 4 * t)),
        static_cast<int>(load_be32(blocks[3] + 4 * t)),
        static_cast<int>(load_be32(blocks[2] + 4 * t)),
        static_cast<int>(load_be32(blocks[1] + 4 * t)),
        static_cast<int>(load_be32(blocks[0] + 4 * t)));
  }
  for (int t = 16; t < 64; ++t) {
    const __m256i x15 = w[t - 15];
    const __m256i x2 = w[t - 2];
    const __m256i s0 = _mm256_xor_si256(
        _mm256_xor_si256(rotr32x8(x15, 7), rotr32x8(x15, 18)),
        _mm256_srli_epi32(x15, 3));
    const __m256i s1 = _mm256_xor_si256(
        _mm256_xor_si256(rotr32x8(x2, 17), rotr32x8(x2, 19)),
        _mm256_srli_epi32(x2, 10));
    w[t] = _mm256_add_epi32(_mm256_add_epi32(w[t - 16], s0),
                            _mm256_add_epi32(w[t - 7], s1));
  }

  __m256i s[8];
  for (int v = 0; v < 8; ++v) {
    s[v] = _mm256_set_epi32(
        static_cast<int>(states[7 * 8 + v]),
        static_cast<int>(states[6 * 8 + v]),
        static_cast<int>(states[5 * 8 + v]),
        static_cast<int>(states[4 * 8 + v]),
        static_cast<int>(states[3 * 8 + v]),
        static_cast<int>(states[2 * 8 + v]),
        static_cast<int>(states[1 * 8 + v]),
        static_cast<int>(states[0 * 8 + v]));
  }
  __m256i a = s[0], b = s[1], c = s[2], d = s[3];
  __m256i e = s[4], f = s[5], g = s[6], h = s[7];

  for (int t = 0; t < 64; ++t) {
    const __m256i big_s1 = _mm256_xor_si256(
        _mm256_xor_si256(rotr32x8(e, 6), rotr32x8(e, 11)), rotr32x8(e, 25));
    const __m256i ch = _mm256_xor_si256(_mm256_and_si256(e, f),
                                        _mm256_andnot_si256(e, g));
    const __m256i temp1 = _mm256_add_epi32(
        _mm256_add_epi32(_mm256_add_epi32(h, big_s1),
                         _mm256_add_epi32(ch, w[t])),
        _mm256_set1_epi32(static_cast<int>(kK[t])));
    const __m256i big_s0 = _mm256_xor_si256(
        _mm256_xor_si256(rotr32x8(a, 2), rotr32x8(a, 13)), rotr32x8(a, 22));
    const __m256i maj = _mm256_xor_si256(
        _mm256_xor_si256(_mm256_and_si256(a, b), _mm256_and_si256(a, c)),
        _mm256_and_si256(b, c));
    const __m256i temp2 = _mm256_add_epi32(big_s0, maj);
    h = g;
    g = f;
    f = e;
    e = _mm256_add_epi32(d, temp1);
    d = c;
    c = b;
    b = a;
    a = _mm256_add_epi32(temp1, temp2);
  }

  s[0] = _mm256_add_epi32(s[0], a);
  s[1] = _mm256_add_epi32(s[1], b);
  s[2] = _mm256_add_epi32(s[2], c);
  s[3] = _mm256_add_epi32(s[3], d);
  s[4] = _mm256_add_epi32(s[4], e);
  s[5] = _mm256_add_epi32(s[5], f);
  s[6] = _mm256_add_epi32(s[6], g);
  s[7] = _mm256_add_epi32(s[7], h);

  alignas(32) std::uint32_t tmp[8];
  for (int v = 0; v < 8; ++v) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), s[v]);
    for (int l = 0; l < 8; ++l) {
      states[static_cast<std::size_t>(l) * 8 + static_cast<std::size_t>(v)] =
          tmp[l];
    }
  }
}

}  // namespace dap::crypto::detail

#else  // !DAP_CRYPTO_HAVE_AVX2

// Keep the translation unit non-empty when the build does not enable
// the AVX2 path (DAP_SIMD=OFF): the dispatcher never references the
// kernel in that configuration.
namespace dap::crypto::detail {
void sha256_batch_avx2_unused() noexcept {}
}  // namespace dap::crypto::detail

#endif  // DAP_CRYPTO_HAVE_AVX2
