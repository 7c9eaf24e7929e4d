#pragma once
// Deterministic parallel execution for the experiment layer.
//
// `parallel_for` / `parallel_map` fan an index range out over a pool of
// worker threads while keeping results bitwise identical to a serial
// run: callers pre-derive any per-item RNG state serially (the
// `subseed` helper and `Rng::fork` both mix with SplitMix64), item
// results land in index-addressed slots, and every chunk of work runs
// against a thread-local telemetry shard that is merged back into the
// process-global registry *in chunk order* on the calling thread once
// the pool joins.
//
// Scheduling: a job's chunks are claimed from one shared atomic cursor
// by the caller and up to `threads - 1` pool workers. The pool serves
// one job at a time and publishes it through atomics, so a worker joins
// without taking a lock. Idle workers, and the caller at the join, spin
// for a fixed ~40 us before they sleep on a condvar: back-to-back short
// jobs (a fleet drain every few tens of microseconds) start while the
// workers are still awake. A second thread that calls parallel_for
// while the pool serves another job runs all of its chunks itself,
// through shards, with the same chunk-order merge.
//
// The telemetry shards are wired through `ShardHooks` function pointers
// rather than a direct dependency: dap_obs links dap_common, so this
// layer cannot include obs headers. obs/registry.cc installs the hooks
// from a static initializer; with no hooks installed the pool still runs
// but bodies share whatever global state they touch. The installed hooks
// live behind an annotated mutex and are snapshotted into each job when
// parallel_for starts, so a job always runs against one consistent hook
// set even if installation raced with it.
//
// Locking discipline: the pool's sleep/wake path and the job's error
// slot use the annotated primitives from common/sync.h; a clang build
// with DAP_THREAD_SAFETY=ON (-Werror=thread-safety) proves every guarded
// field is only touched under its mutex — the static counterpart of the
// TSan job.
//
// Determinism guarantee (and its edge): experiment outputs (structs,
// CSV rows) and merged counters / histogram bucket counts are bitwise
// identical for any thread count. Merged histogram *moments* (mean,
// stddev) may differ in the last ulp across different thread counts
// because Welford combination is not exactly associative; they are
// stable for a fixed thread count and chunking.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace dap::common {

/// Threads the hardware advertises (>= 1 even when unknown).
[[nodiscard]] std::size_t hardware_threads() noexcept;

/// Effective default parallelism: the process-wide override installed by
/// `set_default_threads` if any, else the `DAP_THREADS` environment
/// variable, else `hardware_threads()`.
[[nodiscard]] std::size_t default_threads() noexcept;

/// Installs (n >= 1) or clears (n == 0) the process-wide thread-count
/// override consulted by `default_threads()`. Benches wire their
/// `--threads` flag through this.
void set_default_threads(std::size_t n) noexcept;

/// Stateless SplitMix64-derived sub-seed for item `index` of a run
/// seeded with `base_seed`. Distinct (base, index) pairs give
/// independent streams; the mapping is fixed for all time so seeded
/// experiments stay reproducible across releases. It is one SplitMix64
/// step from state base ^ mixed-index (the golden-ratio increment
/// Rng::fork uses, but stateless, so shard seeds never depend on fork
/// order); inline because the fleet's reservoir replay draws two per
/// offer.
[[nodiscard]] constexpr std::uint64_t subseed(std::uint64_t base_seed,
                                              std::uint64_t index) noexcept {
  constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
  return splitmix64_mix((base_seed ^ ((index + 1) * kGolden)) + kGolden);
}

/// True while the calling thread is executing inside a parallel_for
/// body; nested parallel_for calls detect this and run inline serially.
[[nodiscard]] bool in_parallel_region() noexcept;

/// Wall seconds this process's pool threads (workers and joining
/// callers) have spent spinning before a wake-up or a sleep. The spin
/// counts as busy CPU, so a CPU-utilisation figure includes it; this
/// total says how much. Engine accounting only: it never enters the obs
/// registry, whose exports stay identical across thread counts.
[[nodiscard]] double parallel_spin_seconds() noexcept;

/// Bridge to the telemetry layer (installed by obs/registry.cc).
/// `acquire` runs on the *calling* thread before the job starts and
/// fills one shard per chunk; `activate` / `deactivate` bracket each
/// chunk body on the executing thread (bind/unbind the thread-local
/// shard); `merge` runs on the calling thread after the join, once per
/// chunk in ascending chunk order; `release` then hands every shard
/// back (the obs hooks return them to a pool for a later job). Acquire
/// and release each see the whole job at once, so they can batch.
struct ShardHooks {
  void (*acquire)(void** shards, std::size_t n) = nullptr;
  void (*activate)(void* shard) = nullptr;
  void (*deactivate)(void* shard) = nullptr;
  void (*merge)(void* shard) = nullptr;
  void (*release)(void* const* shards, std::size_t n) = nullptr;
};

void set_shard_hooks(const ShardHooks& hooks) noexcept;
/// Snapshot of the currently installed hooks (by value: the returned
/// copy stays valid even if another thread re-installs concurrently).
[[nodiscard]] ShardHooks shard_hooks() noexcept;

struct ParallelOptions {
  /// Worker count including the calling thread; 0 = default_threads().
  std::size_t threads = 0;
  /// Indices per chunk; 0 picks a grain that yields four chunks per
  /// thread, so the shared chunk cursor can even out uneven item costs.
  std::size_t grain = 0;
};

/// Invokes `body(i)` for every i in [0, n). With threads <= 1 (or n <=
/// 1, or when already inside a parallel region) the body runs inline on
/// the caller with no shards — the bit-exact serial reference. The first
/// exception thrown by any chunk is rethrown on the caller after the
/// join; remaining chunks are skipped (their shards still merge).
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  const ParallelOptions& options = {});

/// Maps [0, n) through `fn` into an index-ordered vector (slot i is
/// fn(i) regardless of which thread ran it).
template <typename T, typename Fn>
[[nodiscard]] std::vector<T> parallel_map(std::size_t n, Fn&& fn,
                                          const ParallelOptions& options = {}) {
  std::vector<T> out(n);
  parallel_for(
      n, [&out, &fn](std::size_t i) { out[i] = fn(i); }, options);
  return out;
}

}  // namespace dap::common
