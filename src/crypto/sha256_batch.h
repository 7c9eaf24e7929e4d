#pragma once
// Batched TESLA chain walk and the multi-lane SHA-256 kernel under it.
//
// A receiver drain verifies many key reveals at once, and every reveal
// is an independent walk down the one-way chain. `prf_walk_many` runs
// those walks: under the `avx2` backend it keeps 8 walks in lockstep,
// one per 32-bit lane of the AVX2 kernel; under `scalar` and `shani` it
// walks them one after another on the one portable chain step,
// `prf_walk` (crypto/prf.h). The scalar `sha256_compress` stays the
// reference oracle, and every output here is bitwise identical to it for
// every backend and batch shape; the test suite and the fuzz harness
// enforce that exactly.
//
// Layering: this header sits *below* dap/tesla/fleet (they call down into
// it, never the reverse) and is its own `crypto_batch` node in the lint
// layering DAG so the kernels can never grow an upward dependency.
//
// Backend selection is the runtime CPUID dispatch of crypto/sha256.h
// (SHA-NI → AVX2 → scalar), overridable via `DAP_CRYPTO_BACKEND` and
// `force_sha256_backend()`.
//
// Telemetry (all deterministic for a fixed workload):
//   crypto.batch.calls            batched entry-point invocations
//   crypto.batch.messages         walks requested through the batch API
//   crypto.batch.blocks           busy-lane block compressions
//   crypto.batch.idle_lane_blocks padding work on unoccupied lanes
//   crypto.batch.lane_occupancy_pct  gauge, published on demand (see
//                                    publish_lane_occupancy) so parallel
//                                    shard merges stay deterministic

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "crypto/prf.h"
#include "crypto/sha256.h"

namespace dap::crypto {

/// Streams the multi-lane kernel compresses in lockstep.
inline constexpr std::size_t kSha256Lanes = 8;

/// One compression on each of kSha256Lanes independent streams. `states`
/// is lane-major (states[lane * 8 + word]) and blocks[lane] points at
/// that lane's 64-byte block. Runs the AVX2 kernel when `avx2` is the
/// active backend, else one `sha256_compress` per lane.
void sha256_compress_lanes(
    std::span<std::uint32_t, 8 * kSha256Lanes> states,
    std::span<const std::uint8_t* const, kSha256Lanes> blocks) noexcept;

/// Batched PRF chain walk with full trajectory capture: trajectories[i]
/// holds the values after 1..steps[i] applications of
/// `prf_bytes(domain, ., key_size)` starting from start[i], packed back
/// to back in one buffer of steps[i] * key_size bytes — the key `s + 1`
/// one-way steps below start[i] is bytes [s * key_size, (s + 1) *
/// key_size). Each start value must already have size key_size. This is
/// the workhorse of batched TESLA chain verification
/// (ChainAuthenticator::accept_many); step counts feed the same
/// crypto.prf_calls / crypto.chain_walk_steps counters as chain_walk.
void prf_walk_many(PrfDomain domain, std::span<const common::Bytes> start,
                   std::span<const std::uint32_t> steps, std::size_t key_size,
                   std::vector<common::Bytes>& trajectories);

/// Publishes the cumulative lane-occupancy gauge
/// (crypto.batch.lane_occupancy_pct = 100 * busy / (busy + idle)) from
/// the effective registry's batch counters. Call from single-threaded
/// context (bench footers, fleet summaries) — gauges written inside
/// worker shards would make the merge order observable.
void publish_lane_occupancy();

}  // namespace dap::crypto
