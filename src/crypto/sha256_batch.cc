#include "crypto/sha256_batch.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <numeric>

#include "common/contracts.h"
#include "obs/registry.h"

#if defined(__SSE2__) || defined(__x86_64__)
#define DAP_CRYPTO_HAVE_SSE2 1
#include <emmintrin.h>
#endif

namespace dap::crypto {

namespace detail {
#if defined(DAP_CRYPTO_HAVE_AVX2)
// Defined in sha256_batch_avx2.cc, compiled with -mavx2 behind the
// DAP_SIMD build option. Only ever called after a runtime CPUID check.
void sha256_compress_x8(std::uint32_t* states,
                        const std::uint8_t* const* blocks) noexcept;
#endif
}  // namespace detail

namespace {

struct BatchTelemetry {
  obs::CounterHandle calls;
  obs::CounterHandle messages;
  obs::CounterHandle blocks;
  obs::CounterHandle idle_blocks;
  obs::GaugeHandle occupancy;
  obs::CounterHandle hmac_calls;
  obs::CounterHandle hmac_midstate_hits;
  obs::CounterHandle prf_calls;
  obs::CounterHandle chain_walk_steps;
};

// Re-resolved per effective registry so shard overrides (parallel runs)
// never see handles minted against a different registry.
const BatchTelemetry& batch_telemetry() {
  thread_local obs::PerRegistryCache<BatchTelemetry> cache;
  return cache.get([](obs::Registry& reg) {
    return BatchTelemetry{reg.counter("crypto.batch.calls"),
                          reg.counter("crypto.batch.messages"),
                          reg.counter("crypto.batch.blocks"),
                          reg.counter("crypto.batch.idle_lane_blocks"),
                          reg.gauge("crypto.batch.lane_occupancy_pct"),
                          reg.counter("crypto.hmac_calls"),
                          reg.counter("crypto.hmac_midstate_hits"),
                          reg.counter("crypto.prf_calls"),
                          reg.counter("crypto.chain_walk_steps")};
  });
}

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

constexpr std::array<std::uint32_t, 64> kK = {
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

// ---- lane kernels --------------------------------------------------------
//
// All kernels share one contract: `states` is lane-major
// (states[lane * 8 + word]), `blocks[lane]` points at that lane's 64-byte
// block, and every lane advances exactly one compression.

void compress_lanes_scalar(std::uint32_t* states,
                           const std::uint8_t* const* blocks,
                           std::size_t lanes) noexcept {
  for (std::size_t l = 0; l < lanes; ++l) {
    sha256_compress(states + 8 * l, blocks[l]);
  }
}

#if defined(DAP_CRYPTO_HAVE_SSE2)

inline __m128i rotr32x4(__m128i x, int n) noexcept {
  return _mm_or_si128(_mm_srli_epi32(x, n), _mm_slli_epi32(x, 32 - n));
}

// 4 independent message schedules in lockstep, one per 32-bit SSE2 lane.
void compress_lanes_sse2_x4(std::uint32_t* states,
                            const std::uint8_t* const* blocks) noexcept {
  __m128i w[64];
  for (int t = 0; t < 16; ++t) {
    w[t] = _mm_set_epi32(
        static_cast<int>(load_be32(blocks[3] + 4 * t)),
        static_cast<int>(load_be32(blocks[2] + 4 * t)),
        static_cast<int>(load_be32(blocks[1] + 4 * t)),
        static_cast<int>(load_be32(blocks[0] + 4 * t)));
  }
  for (int t = 16; t < 64; ++t) {
    const __m128i x15 = w[t - 15];
    const __m128i x2 = w[t - 2];
    const __m128i s0 = _mm_xor_si128(
        _mm_xor_si128(rotr32x4(x15, 7), rotr32x4(x15, 18)),
        _mm_srli_epi32(x15, 3));
    const __m128i s1 = _mm_xor_si128(
        _mm_xor_si128(rotr32x4(x2, 17), rotr32x4(x2, 19)),
        _mm_srli_epi32(x2, 10));
    w[t] = _mm_add_epi32(_mm_add_epi32(w[t - 16], s0),
                         _mm_add_epi32(w[t - 7], s1));
  }

  __m128i s[8];
  for (int v = 0; v < 8; ++v) {
    s[v] = _mm_set_epi32(static_cast<int>(states[3 * 8 + v]),
                         static_cast<int>(states[2 * 8 + v]),
                         static_cast<int>(states[1 * 8 + v]),
                         static_cast<int>(states[0 * 8 + v]));
  }
  __m128i a = s[0], b = s[1], c = s[2], d = s[3];
  __m128i e = s[4], f = s[5], g = s[6], h = s[7];

  for (int t = 0; t < 64; ++t) {
    const __m128i big_s1 = _mm_xor_si128(
        _mm_xor_si128(rotr32x4(e, 6), rotr32x4(e, 11)), rotr32x4(e, 25));
    const __m128i ch =
        _mm_xor_si128(_mm_and_si128(e, f), _mm_andnot_si128(e, g));
    const __m128i temp1 = _mm_add_epi32(
        _mm_add_epi32(_mm_add_epi32(h, big_s1), _mm_add_epi32(ch, w[t])),
        _mm_set1_epi32(static_cast<int>(kK[static_cast<std::size_t>(t)])));
    const __m128i big_s0 = _mm_xor_si128(
        _mm_xor_si128(rotr32x4(a, 2), rotr32x4(a, 13)), rotr32x4(a, 22));
    const __m128i maj = _mm_xor_si128(
        _mm_xor_si128(_mm_and_si128(a, b), _mm_and_si128(a, c)),
        _mm_and_si128(b, c));
    const __m128i temp2 = _mm_add_epi32(big_s0, maj);
    h = g;
    g = f;
    f = e;
    e = _mm_add_epi32(d, temp1);
    d = c;
    c = b;
    b = a;
    a = _mm_add_epi32(temp1, temp2);
  }

  s[0] = _mm_add_epi32(s[0], a);
  s[1] = _mm_add_epi32(s[1], b);
  s[2] = _mm_add_epi32(s[2], c);
  s[3] = _mm_add_epi32(s[3], d);
  s[4] = _mm_add_epi32(s[4], e);
  s[5] = _mm_add_epi32(s[5], f);
  s[6] = _mm_add_epi32(s[6], g);
  s[7] = _mm_add_epi32(s[7], h);

  alignas(16) std::uint32_t tmp[4];
  for (int v = 0; v < 8; ++v) {
    _mm_store_si128(reinterpret_cast<__m128i*>(tmp), s[v]);
    states[0 * 8 + v] = tmp[0];
    states[1 * 8 + v] = tmp[1];
    states[2 * 8 + v] = tmp[2];
    states[3 * 8 + v] = tmp[3];
  }
}

#endif  // DAP_CRYPTO_HAVE_SSE2

// One lockstep compression across `lanes` lanes with the given backend.
void compress_lanes(Sha256Backend backend, std::uint32_t* states,
                    const std::uint8_t* const* blocks,
                    std::size_t lanes) noexcept {
  switch (backend) {
    case Sha256Backend::kAvx2:
#if defined(DAP_CRYPTO_HAVE_AVX2)
      if (lanes == 8) {
        detail::sha256_compress_x8(states, blocks);
        return;
      }
#endif
      break;
    case Sha256Backend::kSse2:
#if defined(DAP_CRYPTO_HAVE_SSE2)
      if (lanes == 4) {
        compress_lanes_sse2_x4(states, blocks);
        return;
      }
#endif
      break;
    case Sha256Backend::kShaNi:
      // One lane; the streaming dispatch routes it to the SHA-NI kernel.
      sha256_compress_blocks(states, blocks[0], 1);
      return;
    case Sha256Backend::kScalar:
      break;
  }
  compress_lanes_scalar(states, blocks, lanes);
}

// ---- batched hashing core ------------------------------------------------

constexpr std::size_t kMaxLanes = 8;

// Per-message block layout: `full_blocks` 64-byte blocks read straight
// from the message, then 1–2 scratch blocks holding the padded tail.
// `seed_bytes` (already-absorbed prefix, e.g. the HMAC pad block) only
// affects the encoded bit length, exactly like Sha256::finalize().
struct LanePlan {
  std::size_t full_blocks = 0;
  std::size_t total_blocks = 0;
  std::array<std::uint8_t, 2 * kSha256BlockSize> scratch{};
};

LanePlan make_plan(common::ByteView msg, std::uint64_t seed_bytes) {
  LanePlan p;
  const std::size_t len = msg.size();
  p.full_blocks = len / kSha256BlockSize;
  const std::size_t tail = len % kSha256BlockSize;
  const std::size_t scratch_blocks = tail <= 55 ? 1 : 2;
  p.total_blocks = p.full_blocks + scratch_blocks;
  if (tail > 0) {
    std::memcpy(p.scratch.data(),
                msg.data() + kSha256BlockSize * p.full_blocks, tail);
  }
  p.scratch[tail] = 0x80;
  const std::uint64_t bits = (seed_bytes + len) * 8;
  std::uint8_t* end =
      p.scratch.data() + scratch_blocks * kSha256BlockSize - 8;
  for (int i = 0; i < 8; ++i) {
    end[i] = static_cast<std::uint8_t>(bits >> (56 - 8 * i));
  }
  return p;
}

// Resumes each lane from its midstate, absorbs msgs[i] plus padding, and
// writes the final digests. The grouping keeps lanes lockstep: messages
// are ordered by total block count, so every lane in a chunk compresses
// the same number of blocks; unoccupied lanes replicate the chunk's
// first message (their work is counted as idle, their states discarded).
void hash_resume_batch(std::span<const Sha256Midstate* const> seeds,
                       std::span<const common::ByteView> msgs,
                       std::span<Digest> out) {
  const std::size_t n = msgs.size();
  DAP_REQUIRE(seeds.size() == n && out.size() >= n,
              "hash_resume_batch: seeds/out must cover every message");
  if (n == 0) return;

  const Sha256Backend backend = active_sha256_backend();
  const std::size_t lanes = backend_lanes(backend);

  std::vector<LanePlan> plans;
  plans.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    plans.push_back(make_plan(msgs[i], seeds[i]->bytes));
  }
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return plans[a].total_blocks < plans[b].total_blocks;
                   });

  std::uint64_t busy = 0;
  std::uint64_t idle = 0;
  std::array<std::uint32_t, kMaxLanes * 8> states{};
  std::array<const std::uint8_t*, kMaxLanes> ptrs{};

  std::size_t pos = 0;
  while (pos < n) {
    const std::size_t blocks_count = plans[order[pos]].total_blocks;
    std::size_t group_end = pos;
    while (group_end < n &&
           plans[order[group_end]].total_blocks == blocks_count) {
      ++group_end;
    }
    for (std::size_t chunk = pos; chunk < group_end; chunk += lanes) {
      const std::size_t active = std::min(lanes, group_end - chunk);
      for (std::size_t l = 0; l < lanes; ++l) {
        const std::uint32_t mi = order[chunk + (l < active ? l : 0)];
        std::copy(seeds[mi]->state.begin(), seeds[mi]->state.end(),
                  states.begin() + static_cast<std::ptrdiff_t>(8 * l));
      }
      for (std::size_t b = 0; b < blocks_count; ++b) {
        for (std::size_t l = 0; l < lanes; ++l) {
          const std::uint32_t mi = order[chunk + (l < active ? l : 0)];
          const LanePlan& p = plans[mi];
          ptrs[l] = b < p.full_blocks
                        ? msgs[mi].data() + kSha256BlockSize * b
                        : p.scratch.data() +
                              kSha256BlockSize * (b - p.full_blocks);
        }
        compress_lanes(backend, states.data(), ptrs.data(), lanes);
      }
      busy += active * blocks_count;
      idle += (lanes - active) * blocks_count;
      for (std::size_t l = 0; l < active; ++l) {
        const std::uint32_t mi = order[chunk + l];
        for (std::size_t v = 0; v < 8; ++v) {
          store_be32(out[mi].data() + 4 * v, states[8 * l + v]);
        }
      }
    }
    pos = group_end;
  }

  const BatchTelemetry& telemetry = batch_telemetry();
  obs::Registry& reg = obs::Registry::global();
  reg.add(telemetry.calls);
  reg.add(telemetry.messages, n);
  reg.add(telemetry.blocks, busy);
  if (idle > 0) reg.add(telemetry.idle_blocks, idle);
}

}  // namespace

void sha256_many(std::span<const common::ByteView> msgs,
                 std::span<Digest> out) {
  const std::size_t n = msgs.size();
  if (n == 0) return;
  static const Sha256Midstate initial = sha256_initial_midstate();
  std::vector<const Sha256Midstate*> seeds(n, &initial);
  hash_resume_batch(seeds, msgs, out);
}

void hmac_many(const HmacKey& key, std::span<const common::ByteView> msgs,
               std::span<Digest> out) {
  const std::size_t n = msgs.size();
  if (n == 0) return;
  std::vector<const HmacKey*> keys(n, &key);
  hmac_many(keys, msgs, out);
}

void hmac_many(std::span<const HmacKey* const> keys,
               std::span<const common::ByteView> msgs,
               std::span<Digest> out) {
  const std::size_t n = msgs.size();
  DAP_REQUIRE(keys.size() == n && out.size() >= n,
              "hmac_many: keys/out must cover every message");
  if (n == 0) return;

  std::vector<const Sha256Midstate*> seeds(n);
  for (std::size_t i = 0; i < n; ++i) {
    seeds[i] = &keys[i]->inner_midstate();
  }
  std::vector<Digest> inner(n);
  hash_resume_batch(seeds, msgs, inner);

  std::vector<common::ByteView> inner_views(n);
  for (std::size_t i = 0; i < n; ++i) {
    seeds[i] = &keys[i]->outer_midstate();
    inner_views[i] = common::ByteView(inner[i].data(), inner[i].size());
  }
  hash_resume_batch(seeds, inner_views, out);

  const BatchTelemetry& telemetry = batch_telemetry();
  obs::Registry& reg = obs::Registry::global();
  reg.add(telemetry.hmac_calls, n);
  reg.add(telemetry.hmac_midstate_hits, n);
}

void prf_walk_many(PrfDomain domain, std::span<const common::Bytes> start,
                   std::span<const std::uint32_t> steps, std::size_t key_size,
                   std::vector<common::Bytes>& trajectories) {
  const std::size_t n = start.size();
  DAP_REQUIRE(steps.size() == n,
              "prf_walk_many: one step count per start value");
  DAP_REQUIRE(key_size >= 1 && key_size <= kSha256DigestSize,
              "prf_walk_many: key_size must be in [1, 32]");
  trajectories.assign(n, {});
  if (n == 0) return;
  for (std::size_t i = 0; i < n; ++i) {
    DAP_REQUIRE(start[i].size() == key_size,
                "prf_walk_many: start values must have size key_size");
    trajectories[i].reserve(std::size_t{steps[i]} * key_size);
  }

  const HmacKey& key = prf_key(domain);
  const Sha256Backend backend = active_sha256_backend();
  const std::size_t lanes = backend_lanes(backend);

  // Every step is exactly 2 lockstep compressions: the inner tail block
  // (key_size <= 32 bytes + padding) and the outer tail block (32-byte
  // inner digest + padding), both resumed from the cached pad midstates.
  std::array<std::uint8_t, kSha256BlockSize> inner_template{};
  inner_template[key_size] = 0x80;
  const std::uint64_t inner_bits =
      (kSha256BlockSize + key_size) * 8;
  for (int i = 0; i < 8; ++i) {
    inner_template[kSha256BlockSize - 8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(inner_bits >> (56 - 8 * i));
  }
  std::array<std::uint8_t, kSha256BlockSize> outer_template{};
  outer_template[kSha256DigestSize] = 0x80;
  const std::uint64_t outer_bits =
      (kSha256BlockSize + kSha256DigestSize) * 8;
  for (int i = 0; i < 8; ++i) {
    outer_template[kSha256BlockSize - 8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(outer_bits >> (56 - 8 * i));
  }

  struct Lane {
    bool active = false;
    std::size_t msg = 0;
    std::uint32_t remaining = 0;
    std::array<std::uint8_t, kSha256BlockSize> inner_block;
    std::array<std::uint8_t, kSha256BlockSize> outer_block;
  };
  std::array<Lane, kMaxLanes> lane;
  for (std::size_t l = 0; l < lanes; ++l) {
    lane[l].inner_block = inner_template;
    lane[l].outer_block = outer_template;
  }

  std::uint64_t total_steps = 0;
  std::uint64_t busy = 0;
  std::uint64_t idle = 0;
  std::size_t next = 0;
  std::size_t active_count = 0;
  std::array<std::uint32_t, kMaxLanes * 8> states{};
  std::array<const std::uint8_t*, kMaxLanes> ptrs{};

  // Seed as many lanes as there is work; refill a lane the moment its
  // walk finishes so occupancy stays high even with uneven gap sizes.
  auto refill = [&]() {
    for (std::size_t l = 0; l < lanes; ++l) {
      while (!lane[l].active && next < n) {
        const std::size_t m = next++;
        if (steps[m] == 0) continue;
        lane[l].active = true;
        lane[l].msg = m;
        lane[l].remaining = steps[m];
        std::memcpy(lane[l].inner_block.data(), start[m].data(), key_size);
        ++active_count;
      }
    }
  };
  refill();

  while (active_count > 0) {
    // Inner compression: lane value -> HMAC inner digest.
    std::size_t donor = 0;
    while (!lane[donor].active) ++donor;
    for (std::size_t l = 0; l < lanes; ++l) {
      const Lane& src = lane[l].active ? lane[l] : lane[donor];
      const std::uint32_t* seed = key.inner_midstate().state.data();
      std::copy(seed, seed + 8,
                states.begin() + static_cast<std::ptrdiff_t>(8 * l));
      ptrs[l] = src.inner_block.data();
    }
    compress_lanes(backend, states.data(), ptrs.data(), lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      if (!lane[l].active) continue;
      for (std::size_t v = 0; v < 8; ++v) {
        store_be32(lane[l].outer_block.data() + 4 * v, states[8 * l + v]);
      }
    }
    // Outer compression: inner digest -> next chain value.
    for (std::size_t l = 0; l < lanes; ++l) {
      const Lane& src = lane[l].active ? lane[l] : lane[donor];
      const std::uint32_t* seed = key.outer_midstate().state.data();
      std::copy(seed, seed + 8,
                states.begin() + static_cast<std::ptrdiff_t>(8 * l));
      ptrs[l] = src.outer_block.data();
    }
    compress_lanes(backend, states.data(), ptrs.data(), lanes);

    busy += 2 * active_count;
    idle += 2 * (lanes - active_count);
    total_steps += active_count;

    for (std::size_t l = 0; l < lanes; ++l) {
      if (!lane[l].active) continue;
      std::array<std::uint8_t, kSha256DigestSize> digest;
      for (std::size_t v = 0; v < 8; ++v) {
        store_be32(digest.data() + 4 * v, states[8 * l + v]);
      }
      trajectories[lane[l].msg].insert(
          trajectories[lane[l].msg].end(), digest.begin(),
          digest.begin() + static_cast<std::ptrdiff_t>(key_size));
      std::memcpy(lane[l].inner_block.data(), digest.data(), key_size);
      if (--lane[l].remaining == 0) {
        lane[l].active = false;
        --active_count;
      }
    }
    refill();
  }

  const BatchTelemetry& telemetry = batch_telemetry();
  obs::Registry& reg = obs::Registry::global();
  reg.add(telemetry.calls);
  reg.add(telemetry.messages, n);
  reg.add(telemetry.blocks, busy);
  if (idle > 0) reg.add(telemetry.idle_blocks, idle);
  reg.add(telemetry.prf_calls, total_steps);
  reg.add(telemetry.hmac_calls, total_steps);
  reg.add(telemetry.hmac_midstate_hits, total_steps);
  reg.add(telemetry.chain_walk_steps, total_steps);
}

void publish_lane_occupancy() {
  const BatchTelemetry& telemetry = batch_telemetry();
  obs::Registry& reg = obs::Registry::global();
  const std::uint64_t busy = reg.value(telemetry.blocks);
  const std::uint64_t idle = reg.value(telemetry.idle_blocks);
  const std::uint64_t total = busy + idle;
  if (total == 0) return;
  reg.set(telemetry.occupancy,
          100.0 * static_cast<double>(busy) / static_cast<double>(total));
}

}  // namespace dap::crypto
