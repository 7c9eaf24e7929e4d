#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "common/rng.h"
#include "common/sync.h"

namespace dap::common {

namespace {

/// Hard cap on pool size: oversubscribing beyond this is never useful
/// and bounds the resources a bad --threads value can claim.
constexpr std::size_t kMaxThreads = 256;

// The hooks and the thread-count override are process-wide configuration
// for the parallel engine itself. The hooks are written by obs's static
// initializer and read once per parallel_for (snapshotted into the job),
// both under g_hooks_mu; the override is a plain atomic. The spin total
// is the engine's own accounting, kept out of the obs registry.
Mutex g_hooks_mu;                               // lint: allow(global-state): engine-wide config lock
ShardHooks g_hooks DAP_GUARDED_BY(g_hooks_mu);  // lint: allow(global-state): guarded engine config
std::atomic<std::size_t> g_thread_override{0};  // lint: allow(global-state): atomic engine config
std::atomic<std::uint64_t> g_spin_ns{0};        // lint: allow(global-state): atomic engine spin total

thread_local bool tls_in_parallel_region = false;

/// How long a waiting thread spins before it sleeps on a condvar: a few
/// short chunks' worth, so a drain's next job (or its last chunk) usually
/// lands while the waiter is still awake.
constexpr std::chrono::nanoseconds kSpinBudget = std::chrono::microseconds(40);

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Spins on `ready` for up to kSpinBudget and returns whether it held.
/// The budget check reads the clock every 64 pauses; the wait's wall
/// time joins the process spin total once, when the wait ends.
template <typename Ready>
bool spin_until(const Ready& ready) {
  if (ready()) return true;
  using Clock = std::chrono::steady_clock;  // lint: allow(determinism): decides only when to sleep
  const Clock::time_point start = Clock::now();
  bool held = false;
  for (std::uint32_t i = 1; !held; ++i) {
    cpu_relax();
    held = ready();
    if (!held && i % 64 == 0 && Clock::now() - start >= kSpinBudget) break;
  }
  const auto spent = Clock::now() - start;
  g_spin_ns.fetch_add(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(spent).count()),
      std::memory_order_relaxed);
  return held;
}

/// One parallel_for invocation: chunk c covers [c * grain, min(n,
/// (c + 1) * grain)), and every participant claims the next chunk from
/// one shared atomic cursor.
///
/// Sharing discipline, field by field: `body`, `n`, `grain`, `hooks`
/// and the size of `shards` are set by parallel_for BEFORE the job is
/// published to the pool and never written afterwards; `shards` slots
/// are written by exactly one executor each (index-addressed by chunk
/// id) and only read after the join; the cursor and join counters are
/// atomics; `error` is guarded by its mutex.
struct Job {
  const std::function<void(std::size_t)>* body =  // lint: allow(guarded-fields): immutable once published
      nullptr;
  std::size_t n = 0;          // lint: allow(guarded-fields): immutable once published
  std::size_t grain = 1;      // lint: allow(guarded-fields): immutable once published
  ShardHooks hooks;           // lint: allow(guarded-fields): immutable once published
  std::vector<void*> shards;  // lint: allow(guarded-fields): one writer per index-addressed slot

  std::atomic<std::size_t> next_chunk{0};
  std::atomic<std::size_t> unfinished_chunks{0};
  /// Pool workers still allowed to join (threads - 1 at publication).
  std::atomic<std::ptrdiff_t> seats{0};
  std::atomic<bool> failed{false};
  Mutex error_mu;
  std::exception_ptr error DAP_GUARDED_BY(error_mu);

  Mutex join_mu;
  CondVar join_cv;

  void note_failure(std::exception_ptr err) {
    {
      const LockGuard lock(error_mu);
      if (error == nullptr) error = std::move(err);
    }
    failed.store(true, std::memory_order_relaxed);
  }

  [[nodiscard]] std::exception_ptr take_error() {
    const LockGuard lock(error_mu);
    return std::exchange(error, nullptr);
  }

  void note_chunk_done() {
    // Touching join_mu after the decrement is safe: a pool worker running
    // this is still counted in the pool's `inside_`, which run() waits
    // out before the job dies; the caller's own chunks run on the thread
    // that later destroys the job.
    if (unfinished_chunks.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      const LockGuard lock(join_mu);
      join_cv.notify_all();
    }
  }

  /// Spins, then sleeps, until every chunk has finished.
  void wait_for_chunks() {
    const auto done = [this] {
      return unfinished_chunks.load(std::memory_order_acquire) == 0;
    };
    if (spin_until(done)) return;
    UniqueLock lock(join_mu);
    while (!done()) join_cv.wait(lock);
  }
};

/// Unbinds the shard even when the body throws.
class ShardActivation {
 public:
  ShardActivation(const ShardHooks& hooks, void* shard)
      : hooks_(hooks), shard_(shard) {
    if (shard_ != nullptr && hooks_.activate != nullptr) {
      hooks_.activate(shard_);
    }
    tls_in_parallel_region = true;
  }
  ShardActivation(const ShardActivation&) = delete;
  ShardActivation& operator=(const ShardActivation&) = delete;
  ~ShardActivation() {
    tls_in_parallel_region = false;
    if (shard_ != nullptr && hooks_.deactivate != nullptr) {
      hooks_.deactivate(shard_);
    }
  }

 private:
  const ShardHooks& hooks_;
  void* shard_;
};

void execute_chunk(Job& job, std::size_t chunk_id) {
  void* shard = job.hooks.create != nullptr ? job.hooks.create() : nullptr;
  job.shards[chunk_id] = shard;
  {
    const ShardActivation activation(job.hooks, shard);
    if (!job.failed.load(std::memory_order_relaxed)) {
      try {
        const std::size_t begin = chunk_id * job.grain;
        const std::size_t end = std::min(job.n, begin + job.grain);
        for (std::size_t i = begin; i < end; ++i) (*job.body)(i);
      } catch (...) {
        job.note_failure(std::current_exception());
      }
    }
  }
  job.note_chunk_done();
}

/// Runs chunks from the job's shared cursor until it passes the end.
void participate(Job& job) {
  const std::size_t chunks = job.shards.size();
  for (;;) {
    const std::size_t c =
        job.next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (c >= chunks) return;
    execute_chunk(job, c);
  }
}

/// Lazily grown pool of workers that serve one job at a time. A job is
/// published through atomics (pointer, then epoch); a worker that sees
/// a new epoch raises `inside_`, reads the pointer, takes a seat if one
/// is left, and drains the shared cursor. Workers and the joining
/// caller spin for kSpinBudget before they sleep, so back-to-back short
/// jobs start without a futex wake. Workers persist across calls.
class WorkerPool {
 public:
  static WorkerPool& instance() {
    // The pool is the engine's own machinery, torn down at process exit.
    static WorkerPool pool;  // lint: allow(global-state): process-wide worker pool
    return pool;
  }
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Runs `job` on the caller plus up to `threads - 1` pool workers.
  /// Returns after every chunk completed AND no worker can still read
  /// `job`, so `job` can live on the caller's stack. A caller that finds
  /// the pool serving another thread's job runs every chunk itself.
  void run(Job& job, std::size_t threads) {
    ensure_workers(threads - 1);
    if (busy_.exchange(true, std::memory_order_acquire)) {
      participate(job);
      return;
    }
    job.seats.store(static_cast<std::ptrdiff_t>(threads - 1),
                    std::memory_order_relaxed);
    job_.store(&job, std::memory_order_seq_cst);
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    // A sleeper raises sleepers_ under mu_ BEFORE it checks the epoch,
    // and both pairs of steps are seq_cst: either it sees the new epoch,
    // or this load sees it. Taking mu_ then orders the notify after its
    // predicate check, so the wake cannot fall between check and wait.
    if (sleepers_.load(std::memory_order_seq_cst) != 0) {
      { const LockGuard lock(mu_); }
      cv_.notify_all();
    }
    participate(job);
    job.wait_for_chunks();
    // A worker raises inside_ BEFORE it reads job_, and all four steps
    // are seq_cst: once job_ is cleared, every worker that read this job
    // is counted, so the job outlives the last of them.
    job_.store(nullptr, std::memory_order_seq_cst);
    while (inside_.load(std::memory_order_seq_cst) != 0) {
      std::this_thread::yield();
    }
    busy_.store(false, std::memory_order_release);
  }

 private:
  WorkerPool() = default;
  ~WorkerPool() {
    std::vector<std::thread> workers;
    {
      const LockGuard lock(mu_);
      stop_.store(true, std::memory_order_seq_cst);
      workers.swap(workers_);
    }
    cv_.notify_all();
    for (std::thread& worker : workers) worker.join();
  }

  void ensure_workers(std::size_t wanted) {
    if (spawned_.load(std::memory_order_acquire) >= wanted) return;
    const LockGuard lock(mu_);
    while (workers_.size() < wanted && workers_.size() < kMaxThreads - 1) {
      workers_.emplace_back([this] { worker_loop(); });
    }
    spawned_.store(workers_.size(), std::memory_order_release);
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    const auto woken = [this, &seen] {
      return epoch_.load(std::memory_order_seq_cst) != seen ||
             stop_.load(std::memory_order_seq_cst);
    };
    for (;;) {
      if (!spin_until(woken)) {
        UniqueLock lock(mu_);
        sleepers_.fetch_add(1, std::memory_order_seq_cst);
        while (!woken()) cv_.wait(lock);
        sleepers_.fetch_sub(1, std::memory_order_relaxed);
      }
      if (stop_.load(std::memory_order_acquire)) return;
      inside_.fetch_add(1, std::memory_order_seq_cst);
      seen = epoch_.load(std::memory_order_seq_cst);
      Job* job = job_.load(std::memory_order_seq_cst);
      if (job != nullptr &&
          job->seats.fetch_sub(1, std::memory_order_relaxed) > 0) {
        participate(*job);
      }
      inside_.fetch_sub(1, std::memory_order_release);
    }
  }

  std::atomic<Job*> job_{nullptr};
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::size_t> inside_{0};
  std::atomic<bool> busy_{false};
  std::atomic<std::size_t> sleepers_{0};
  std::atomic<std::size_t> spawned_{0};
  std::atomic<bool> stop_{false};
  Mutex mu_;
  CondVar cv_;
  std::vector<std::thread> workers_ DAP_GUARDED_BY(mu_);
};

void run_serial(std::size_t n, const std::function<void(std::size_t)>& body) {
  for (std::size_t i = 0; i < n; ++i) body(i);
}

}  // namespace

std::size_t hardware_threads() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

std::size_t default_threads() noexcept {
  const std::size_t override_threads =
      g_thread_override.load(std::memory_order_relaxed);
  if (override_threads != 0) return override_threads;
  if (const char* env = std::getenv("DAP_THREADS")) {
    char* end = nullptr;
    const unsigned long parsed = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && parsed >= 1 && parsed <= kMaxThreads) {
      return static_cast<std::size_t>(parsed);
    }
  }
  return hardware_threads();
}

void set_default_threads(std::size_t n) noexcept {
  g_thread_override.store(n > kMaxThreads ? kMaxThreads : n,
                          std::memory_order_relaxed);
}

std::uint64_t subseed(std::uint64_t base_seed, std::uint64_t index) noexcept {
  // One extra SplitMix64 round over (base ^ mixed-index) — the same
  // golden-ratio increment Rng::fork uses, but stateless, so shard seeds
  // never depend on fork order.
  std::uint64_t state =
      base_seed ^ ((index + 1) * 0x9e3779b97f4a7c15ULL);
  return splitmix64(state);
}

bool in_parallel_region() noexcept { return tls_in_parallel_region; }

double parallel_spin_seconds() noexcept {
  return static_cast<double>(g_spin_ns.load(std::memory_order_relaxed)) * 1e-9;
}

void set_shard_hooks(const ShardHooks& hooks) noexcept {
  const LockGuard lock(g_hooks_mu);
  g_hooks = hooks;
}

ShardHooks shard_hooks() noexcept {
  const LockGuard lock(g_hooks_mu);
  return g_hooks;
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  const ParallelOptions& options) {
  if (n == 0) return;
  std::size_t threads =
      options.threads != 0 ? options.threads : default_threads();
  if (threads > kMaxThreads) threads = kMaxThreads;
  if (threads > n) threads = n;
  // Inside a parallel region the telemetry shard for the outer chunk is
  // already bound; running inline keeps the shard accounting (and the
  // serial-equivalence argument) simple.
  if (threads <= 1 || in_parallel_region()) {
    run_serial(n, body);
    return;
  }

  // Several chunks per participant so the shared cursor can even out
  // uneven per-item cost; chunk boundaries depend only on (n, threads,
  // grain).
  std::size_t grain = options.grain;
  if (grain == 0) {
    const std::size_t target_chunks = threads * 4;
    grain = (n + target_chunks - 1) / target_chunks;
  }

  Job job;
  job.body = &body;
  job.n = n;
  job.grain = grain;
  job.hooks = shard_hooks();
  job.shards.assign((n + grain - 1) / grain, nullptr);
  job.unfinished_chunks.store(job.shards.size(), std::memory_order_relaxed);
  WorkerPool::instance().run(job, threads);

  // Merge shards on the calling thread in chunk order: fixed order makes
  // the merged registry reproducible for a fixed configuration.
  for (void* shard : job.shards) {
    if (shard == nullptr) continue;
    if (job.hooks.merge != nullptr) job.hooks.merge(shard);
    if (job.hooks.destroy != nullptr) job.hooks.destroy(shard);
  }
  if (std::exception_ptr error = job.take_error()) {
    std::rethrow_exception(error);
  }
}

}  // namespace dap::common
