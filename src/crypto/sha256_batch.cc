#include "crypto/sha256_batch.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/contracts.h"
#include "crypto/hmac.h"
#include "obs/registry.h"

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
                          reg.counter("crypto.chain_walk_steps")};
  });
}

struct WalkTally {
  std::uint64_t steps = 0;
  std::uint64_t busy = 0;  // block compressions on live walks
  std::uint64_t idle = 0;  // block compressions on unoccupied lanes
};

// 1-lane backends (scalar, shani): one walk after another on the
// portable chain step.
WalkTally walk_each(PrfDomain domain, std::span<const common::Bytes> start,
                    std::span<const std::uint32_t> steps,
                    std::size_t key_size,
                    std::vector<common::Bytes>& trajectories) {
  WalkTally tally;
  for (std::size_t i = 0; i < start.size(); ++i) {
    prf_walk(domain, start[i], key_size, trajectories[i]);
    tally.steps += steps[i];
  }
  tally.busy = 2 * tally.steps;
  return tally;
}

#if defined(DAP_CRYPTO_HAVE_AVX2)

void store_be32(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

using Block = std::array<std::uint8_t, kSha256BlockSize>;

// `avx2`: kSha256Lanes walks in lockstep on the 8-lane kernel, each step
// the same two compressions prf_walk runs on the same tail blocks. A lane
// is refilled the moment its walk finishes, so occupancy stays high even
// with uneven gap sizes; unoccupied lanes replay a live lane's block and
// their states are discarded.
WalkTally walk_lockstep(const HmacKey& key,
                        std::span<const common::Bytes> start,
                        std::span<const std::uint32_t> steps,
                        std::size_t key_size,
                        std::vector<common::Bytes>& trajectories) {
  const std::size_t n = start.size();
  struct Lane {
    bool active = false;
    std::size_t msg = 0;
    std::uint32_t remaining = 0;
    Block inner_block;
    Block outer_block;
  };
  std::array<Lane, kSha256Lanes> lane;
  for (Lane& l : lane) {
    l.inner_block = prf_tail_block(key_size);
    l.outer_block = prf_tail_block(kSha256DigestSize);
  }

  WalkTally tally;
  std::size_t next = 0;
  std::size_t active_count = 0;
  std::array<std::uint32_t, kSha256Lanes * 8> states{};
  std::array<const std::uint8_t*, kSha256Lanes> ptrs{};

  auto refill = [&]() {
    for (Lane& l : lane) {
      while (!l.active && next < n) {
        const std::size_t m = next++;
        if (steps[m] == 0) continue;
        l.active = true;
        l.msg = m;
        l.remaining = steps[m];
        std::memcpy(l.inner_block.data(), start[m].data(), key_size);
        ++active_count;
      }
    }
  };
  refill();

  while (active_count > 0) {
    // Inner compression: lane value -> HMAC inner digest.
    std::size_t donor = 0;
    while (!lane[donor].active) ++donor;
    for (std::size_t l = 0; l < kSha256Lanes; ++l) {
      const Lane& src = lane[l].active ? lane[l] : lane[donor];
      const std::uint32_t* seed = key.inner_midstate().state.data();
      std::copy(seed, seed + 8,
                states.begin() + static_cast<std::ptrdiff_t>(8 * l));
      ptrs[l] = src.inner_block.data();
    }
    detail::sha256_compress_x8(states.data(), ptrs.data());
    for (std::size_t l = 0; l < kSha256Lanes; ++l) {
      if (!lane[l].active) continue;
      for (std::size_t v = 0; v < 8; ++v) {
        store_be32(lane[l].outer_block.data() + 4 * v, states[8 * l + v]);
      }
    }
    // Outer compression: inner digest -> next chain value.
    for (std::size_t l = 0; l < kSha256Lanes; ++l) {
      const Lane& src = lane[l].active ? lane[l] : lane[donor];
      const std::uint32_t* seed = key.outer_midstate().state.data();
      std::copy(seed, seed + 8,
                states.begin() + static_cast<std::ptrdiff_t>(8 * l));
      ptrs[l] = src.outer_block.data();
    }
    detail::sha256_compress_x8(states.data(), ptrs.data());

    tally.busy += 2 * active_count;
    tally.idle += 2 * (kSha256Lanes - active_count);
    tally.steps += active_count;

    for (std::size_t l = 0; l < kSha256Lanes; ++l) {
      if (!lane[l].active) continue;
      std::array<std::uint8_t, kSha256DigestSize> digest;
      for (std::size_t v = 0; v < 8; ++v) {
        store_be32(digest.data() + 4 * v, states[8 * l + v]);
      }
      const std::size_t done = steps[lane[l].msg] - lane[l].remaining;
      std::memcpy(trajectories[lane[l].msg].data() + done * key_size,
                  digest.data(), key_size);
      std::memcpy(lane[l].inner_block.data(), digest.data(), key_size);
      if (--lane[l].remaining == 0) {
        lane[l].active = false;
        --active_count;
      }
    }
    refill();
  }
  return tally;
}

#endif  // DAP_CRYPTO_HAVE_AVX2

}  // namespace

void sha256_compress_lanes(
    std::span<std::uint32_t, 8 * kSha256Lanes> states,
    std::span<const std::uint8_t* const, kSha256Lanes> blocks) noexcept {
#if defined(DAP_CRYPTO_HAVE_AVX2)
  if (active_sha256_backend() == Sha256Backend::kAvx2) {
    detail::sha256_compress_x8(states.data(), blocks.data());
    return;
  }
#endif
  for (std::size_t l = 0; l < kSha256Lanes; ++l) {
    sha256_compress(states.data() + 8 * l, blocks[l]);
  }
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
    trajectories[i].resize(std::size_t{steps[i]} * key_size);
  }

#if defined(DAP_CRYPTO_HAVE_AVX2)
  const WalkTally tally =
      active_sha256_backend() == Sha256Backend::kAvx2
          ? walk_lockstep(prf_key(domain), start, steps, key_size,
                          trajectories)
          : walk_each(domain, start, steps, key_size, trajectories);
#else
  const WalkTally tally =
      walk_each(domain, start, steps, key_size, trajectories);
#endif

  const BatchTelemetry& telemetry = batch_telemetry();
  obs::Registry& reg = obs::Registry::global();
  reg.add(telemetry.calls);
  reg.add(telemetry.messages, n);
  reg.add(telemetry.blocks, tally.busy);
  if (tally.idle > 0) reg.add(telemetry.idle_blocks, tally.idle);
  reg.add(telemetry.chain_walk_steps, tally.steps);
  count_prf_steps(tally.steps);
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
