#include "crypto/sha256.h"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>

#include "common/contracts.h"

#if defined(DAP_CRYPTO_HAVE_SHANI)
#include <cpuid.h>
#endif

namespace dap::crypto {

namespace detail {
#if defined(DAP_CRYPTO_HAVE_SHANI)
// Defined in sha256_shani.cc, compiled with -msha -msse4.1 behind the
// DAP_SIMD build option. Only ever called after a runtime CPUID check.
void sha256_compress_shani(std::uint32_t state[8], const std::uint8_t* data,
                           std::size_t nblocks) noexcept;
#endif
}  // namespace detail

namespace {

// Test/debug override; -1 means "auto". Process-wide by design: the
// backend is a pure performance knob (outputs are backend-invariant).
// lint: allow(global-state): runtime backend override must be visible to
// every thread; outputs are bitwise identical regardless of its value.
std::atomic<int> g_forced_backend{-1};

#if defined(DAP_CRYPTO_HAVE_SHANI)
// CPUID leaf 7 EBX bit 29 (SHA), plus the SSSE3 (leaf 1 ECX bit 9) and
// SSE4.1 (leaf 1 ECX bit 19) shuffles and blends the kernel leans on.
bool cpu_has_shani() noexcept {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool ssse3 = (ecx & (1u << 9)) != 0;
  const bool sse41 = (ecx & (1u << 19)) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return ssse3 && sse41 && (ebx & (1u << 29)) != 0;
}
#endif

bool backend_supported(Sha256Backend backend) noexcept {
  switch (backend) {
    case Sha256Backend::kScalar:
      return true;
    case Sha256Backend::kAvx2:
#if defined(DAP_CRYPTO_HAVE_AVX2) && \
    (defined(__x86_64__) || defined(__i386__))
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case Sha256Backend::kShaNi: {
#if defined(DAP_CRYPTO_HAVE_SHANI)
      static const bool has_shani = cpu_has_shani();
      return has_shani;
#else
      return false;
#endif
    }
  }
  return false;
}

Sha256Backend clamp_to_supported(Sha256Backend want) noexcept {
  while (!backend_supported(want)) {
    want = static_cast<Sha256Backend>(static_cast<std::uint8_t>(want) - 1);
  }
  return want;
}

Sha256Backend detect_backend() noexcept {
  if (const char* env = std::getenv("DAP_CRYPTO_BACKEND")) {
    const std::string_view v(env);
    if (v == "scalar") return Sha256Backend::kScalar;
    if (v == "avx2") return clamp_to_supported(Sha256Backend::kAvx2);
    if (v == "shani") return clamp_to_supported(Sha256Backend::kShaNi);
    // Unknown values fall through to auto-detection.
  }
  return best_supported_sha256_backend();
}

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
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

constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

std::uint32_t load_be32(const std::uint8_t* p) noexcept {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

void store_be32(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

}  // namespace

std::string_view backend_name(Sha256Backend backend) noexcept {
  switch (backend) {
    case Sha256Backend::kScalar:
      return "scalar";
    case Sha256Backend::kAvx2:
      return "avx2";
    case Sha256Backend::kShaNi:
      return "shani";
  }
  return "unknown";
}

Sha256Backend best_supported_sha256_backend() noexcept {
  return clamp_to_supported(Sha256Backend::kShaNi);
}

std::vector<Sha256Backend> supported_sha256_backends() {
  std::vector<Sha256Backend> out;
  for (const Sha256Backend b : {Sha256Backend::kScalar, Sha256Backend::kAvx2,
                                Sha256Backend::kShaNi}) {
    if (backend_supported(b)) out.push_back(b);
  }
  return out;
}

Sha256Backend active_sha256_backend() noexcept {
  const int forced = g_forced_backend.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Sha256Backend>(forced);
  static const Sha256Backend detected = detect_backend();
  return detected;
}

void force_sha256_backend(Sha256Backend backend) noexcept {
  g_forced_backend.store(static_cast<int>(clamp_to_supported(backend)),
                         std::memory_order_relaxed);
}

void clear_sha256_backend_override() noexcept {
  g_forced_backend.store(-1, std::memory_order_relaxed);
}

Sha256Backend streaming_sha256_backend() noexcept {
  return active_sha256_backend() == Sha256Backend::kShaNi
             ? Sha256Backend::kShaNi
             : Sha256Backend::kScalar;
}

Sha256::Sha256() noexcept { reset(); }

void Sha256::reset() noexcept {
  state_ = kInitialState;
  buffered_ = 0;
  total_bytes_ = 0;
}

Sha256Midstate sha256_initial_midstate() noexcept {
  return Sha256Midstate{kInitialState, 0};
}

Sha256Midstate Sha256::midstate() const noexcept {
  DAP_REQUIRE(buffered_ == 0,
              "Sha256::midstate: only valid on a block boundary");
  return Sha256Midstate{state_, total_bytes_};
}

void Sha256::restore(const Sha256Midstate& ms) noexcept {
  state_ = ms.state;
  buffered_ = 0;
  total_bytes_ = ms.bytes;
}

void sha256_compress(std::uint32_t state[8],
                     const std::uint8_t* block) noexcept {
  std::array<std::uint32_t, 64> w;
  for (int i = 0; i < 16; ++i) {
    w[static_cast<std::size_t>(i)] = load_be32(block + 4 * i);
  }
  for (std::size_t i = 16; i < 64; ++i) {
    const std::uint32_t s0 = std::rotr(w[i - 15], 7) ^ std::rotr(w[i - 15], 18) ^
                             (w[i - 15] >> 3);
    const std::uint32_t s1 = std::rotr(w[i - 2], 17) ^ std::rotr(w[i - 2], 19) ^
                             (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (std::size_t i = 0; i < 64; ++i) {
    const std::uint32_t s1 =
        std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
    const std::uint32_t s0 =
        std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

void sha256_compress_blocks(std::uint32_t state[8], const std::uint8_t* data,
                            std::size_t nblocks) noexcept {
#if defined(DAP_CRYPTO_HAVE_SHANI)
  if (streaming_sha256_backend() == Sha256Backend::kShaNi) {
    detail::sha256_compress_shani(state, data, nblocks);
    return;
  }
#endif
  for (std::size_t i = 0; i < nblocks; ++i) {
    sha256_compress(state, data + kSha256BlockSize * i);
  }
}

void Sha256::update(common::ByteView data) noexcept {
  total_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t need = 64 - buffered_;
    const std::size_t take = data.size() < need ? data.size() : need;
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == 64) {
      sha256_compress_blocks(state_.data(), buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  const std::size_t full_blocks = (data.size() - offset) / 64;
  if (full_blocks > 0) {
    sha256_compress_blocks(state_.data(), data.data() + offset, full_blocks);
    offset += 64 * full_blocks;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

Digest Sha256::finalize() noexcept {
  const std::uint64_t bit_length = total_bytes_ * 8;
  // Padding: 0x80, zeros, then 64-bit big-endian bit length — written
  // straight into the buffer, spilling into a second block when the
  // buffered tail leaves no room for the length (tail > 55 bytes).
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::memset(buffer_.data() + buffered_, 0, 64 - buffered_);
    sha256_compress_blocks(state_.data(), buffer_.data(), 1);
    buffered_ = 0;
  }
  std::memset(buffer_.data() + buffered_, 0, 56 - buffered_);
  for (std::size_t i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_length >> (56 - 8 * i));
  }
  sha256_compress_blocks(state_.data(), buffer_.data(), 1);
  buffered_ = 0;

  Digest out;
  for (std::size_t i = 0; i < 8; ++i) {
    store_be32(out.data() + 4 * i, state_[i]);
  }
  return out;
}

Digest sha256(common::ByteView data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finalize();
}

common::Bytes sha256_bytes(common::ByteView data) {
  const Digest d = sha256(data);
  return common::Bytes(d.begin(), d.end());
}

}  // namespace dap::crypto
