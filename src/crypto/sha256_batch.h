#pragma once
// Batched multi-lane SHA-256 / HMAC / PRF-walk backend.
//
// Every DAP announce, μMAC check, and TESLA chain reveal bottoms out in
// SHA-256, and the messages are *independent* — so the hot paths batch
// them and compress 4 (SSE2) or 8 (AVX2) message schedules in lockstep,
// one lane per message, or hand each block to the 1-lane SHA-NI kernel,
// with the scalar `sha256_compress` kept as the reference oracle. Every
// entry point here is bitwise identical to the scalar path for every
// backend, batch size, and lane count; the test suite and the fuzz
// harness enforce that exactly.
//
// Layering: this header sits *below* dap/tesla/fleet (they call down into
// it, never the reverse) and is its own `crypto_batch` node in the lint
// layering DAG so the kernels can never grow an upward dependency.
//
// Backend selection is the runtime CPUID dispatch of crypto/sha256.h
// (SHA-NI → AVX2 → SSE2 → scalar), overridable via `DAP_CRYPTO_BACKEND`
// and `force_sha256_backend()`.
//
// Telemetry (all deterministic for a fixed workload):
//   crypto.batch.calls            batched entry-point invocations
//   crypto.batch.messages         messages hashed through the batch API
//   crypto.batch.blocks           busy-lane block compressions
//   crypto.batch.idle_lane_blocks padding work on unoccupied lanes
//   crypto.batch.lane_occupancy_pct  gauge, published on demand (see
//                                    publish_lane_occupancy) so parallel
//                                    shard merges stay deterministic

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "crypto/hmac.h"
#include "crypto/prf.h"
#include "crypto/sha256.h"

namespace dap::crypto {

// The backend enum, its CPUID/env selection and the test overrides live
// in crypto/sha256.h (included above), shared with the streaming path.

/// Batched one-shot hashing: out[i] = sha256(msgs[i]).
/// Requires out.size() >= msgs.size().
void sha256_many(std::span<const common::ByteView> msgs,
                 std::span<Digest> out);

/// Batched HMAC under one precomputed key: out[i] = key.mac(msgs[i]).
/// Counts every message toward crypto.hmac_calls / hmac_midstate_hits,
/// exactly as the scalar HmacKey::mac path does.
void hmac_many(const HmacKey& key, std::span<const common::ByteView> msgs,
               std::span<Digest> out);

/// Batched HMAC with a distinct precomputed key per message:
/// out[i] = keys[i]->mac(msgs[i]). Requires keys.size() == msgs.size().
void hmac_many(std::span<const HmacKey* const> keys,
               std::span<const common::ByteView> msgs, std::span<Digest> out);

/// Batched PRF chain walk with full trajectory capture: trajectories[i]
/// holds the values after 1..steps[i] applications of
/// `prf_bytes(domain, ., key_size)` starting from start[i], packed back
/// to back in one buffer of steps[i] * key_size bytes — the key `s + 1`
/// one-way steps below start[i] is bytes [s * key_size, (s + 1) *
/// key_size). Each start value must already have size key_size. This is
/// the workhorse of batched TESLA chain verification
/// (ChainAuthenticator::accept_many); step counts feed the same
/// crypto.prf_calls / crypto.chain_walk_steps counters as the scalar
/// chain_walk path.
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
