// Tests for the deterministic parallel execution engine: SplitMix
// sub-seed derivation, telemetry shard merging, work distribution, and
// the headline guarantee — experiment outputs bitwise identical at any
// thread count. These are the tests the TSan CI job runs under
// `ctest -L test_parallel`.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <new>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/chaos.h"
#include "analysis/montecarlo.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "game/ess.h"
#include "game/optimizer.h"
#include "game/params.h"
#include "obs/export.h"
#include "obs/registry.h"
#include "obs/snapshot.h"
#include "obs/tracer.h"

// Every operator new in this binary counts its bytes, so the
// RecycledShards tests can bound what shard creation and a parallel_for
// job allocate.
namespace {
std::atomic<std::uint64_t> g_new_bytes{0};
thread_local std::uint64_t tls_new_bytes = 0;  // this thread's share

void* counted_malloc(std::size_t size) noexcept {
  g_new_bytes.fetch_add(size, std::memory_order_relaxed);
  tls_new_bytes += size;
  return std::malloc(size == 0 ? 1 : size);
}
}  // namespace

// GCC can't see that the replacement operator delete below pairs with the
// malloc inside the replacement operator new, and warns on every new[].
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace dap {
namespace {

// Pins the process default thread count for one test body, restoring
// the unpinned default afterwards.
class ThreadGuard {
 public:
  explicit ThreadGuard(std::size_t n) { common::set_default_threads(n); }
  ~ThreadGuard() { common::set_default_threads(0); }
};

// ------------------------------------------------------------- sub-seeds

TEST(Subseed, DeterministicAndFixedForAllTime) {
  // The mapping is part of the reproducibility contract: pin values so
  // accidental algorithm changes fail loudly.
  EXPECT_EQ(common::subseed(42, 0), 0x28efe333b266f103ULL);
  EXPECT_EQ(common::subseed(42, 7), 0xcc868f8d9bd23f76ULL);
  // It is one step of the out-of-line SplitMix64 from base ^ mixed index.
  for (const std::uint64_t index : {0ULL, 7ULL, 1ULL << 40, ~0ULL}) {
    std::uint64_t state = 42 ^ ((index + 1) * 0x9e3779b97f4a7c15ULL);
    EXPECT_EQ(common::subseed(42, index), common::splitmix64(state));
  }
}

TEST(Subseed, DistinctAcrossIndicesAndBases) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {0ull, 1ull, 42ull, ~0ull}) {
    for (std::uint64_t index = 0; index < 64; ++index) {
      seen.insert(common::subseed(base, index));
    }
  }
  EXPECT_EQ(seen.size(), 4u * 64u);  // no collisions in a small window
}

// ------------------------------------------------------- basic execution

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 5u, 8u}) {
    std::vector<std::atomic<int>> hits(257);
    common::parallel_for(
        hits.size(), [&hits](std::size_t i) { hits[i].fetch_add(1); },
        {.threads = threads});
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ParallelFor, ZeroAndOneItemEdgeCases) {
  int calls = 0;
  common::parallel_for(0, [&calls](std::size_t) { ++calls; }, {.threads = 8});
  EXPECT_EQ(calls, 0);
  common::parallel_for(1, [&calls](std::size_t) { ++calls; }, {.threads = 8});
  EXPECT_EQ(calls, 1);
}

TEST(ParallelMap, SlotsMatchIndices) {
  const auto out = common::parallel_map<std::size_t>(
      1000, [](std::size_t i) { return i * i; }, {.threads = 4});
  ASSERT_EQ(out.size(), 1000u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], i * i);
  }
}

TEST(ParallelFor, NestedCallsRunInline) {
  std::atomic<int> inner_total{0};
  common::parallel_for(
      4,
      [&inner_total](std::size_t) {
        EXPECT_TRUE(common::in_parallel_region());
        common::parallel_for(
            8, [&inner_total](std::size_t) { inner_total.fetch_add(1); },
            {.threads = 8});
      },
      {.threads = 2});
  EXPECT_FALSE(common::in_parallel_region());
  EXPECT_EQ(inner_total.load(), 32);
}

TEST(ParallelFor, RapidSmallJobsJoinSafely) {
  // Regression for the join race: with tiny bodies the caller often
  // drains every chunk before the pool workers wake, and a late-waking
  // worker must not be able to claim (and then touch) a job whose
  // parallel_for already returned and destroyed its stack frame. Each
  // iteration writes through the job-local vector so a stale claim
  // shows up as a TSan race / crash rather than passing silently.
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::atomic<int>> hits(4);
    common::parallel_for(
        hits.size(), [&hits](std::size_t i) { hits[i].fetch_add(1); },
        {.threads = 4, .grain = 1});
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelFor, JobAfterWorkersSleptCoversEveryIndex) {
  // Warm the pool, then idle far past the workers' spin budget so they
  // are asleep on the condvar when the next job is published.
  common::parallel_for(
      64, [](std::size_t) {}, {.threads = 4, .grain = 1});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // The workers spun out their budget before they slept, and said so.
  EXPECT_GT(common::parallel_spin_seconds(), 0.0);
  // Each index waits (boundedly) until a second thread has entered the
  // body, so the job only finishes fast if a sleeping worker woke up.
  std::mutex mu;
  std::set<std::thread::id> entered;
  std::vector<std::atomic<int>> hits(8);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  common::parallel_for(
      hits.size(),
      [&](std::size_t i) {
        hits[i].fetch_add(1);
        for (;;) {
          {
            const std::lock_guard<std::mutex> lock(mu);
            entered.insert(std::this_thread::get_id());
            if (entered.size() >= 2) break;
          }
          if (std::chrono::steady_clock::now() > deadline) break;
          std::this_thread::yield();
        }
      },
      {.threads = 4, .grain = 1});
  EXPECT_GE(entered.size(), 2u) << "no sleeping worker joined the job";
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, ConcurrentCallersGetExactResultsAndMergedCounters) {
  // Both callers fan out at once; whichever finds the pool busy runs its
  // chunks on its own thread, still through shards merged in chunk order.
  const auto run = [](std::size_t threads, std::size_t salt) {
    obs::Registry target;
    obs::Registry* prev = obs::Registry::set_thread_override(&target);
    std::vector<std::atomic<int>> hits(300);
    std::atomic<int> unsharded{0};
    common::parallel_for(
        hits.size(),
        [&hits, &unsharded, salt](std::size_t i) {
          hits[i].fetch_add(1);
          if (!common::in_parallel_region()) unsharded.fetch_add(1);
          auto& reg = obs::Registry::global();
          reg.add(reg.counter("ptest.concurrent.items"), i + salt);
          reg.observe(reg.histogram("ptest.concurrent_us"),
                      static_cast<double>((i + salt) % 11) + 1.0);
        },
        {.threads = threads});
    obs::Registry::set_thread_override(prev);
    for (const auto& h : hits) {
      if (h.load() != 1) return std::string("index coverage broken");
    }
    if (threads > 1 && unsharded.load() != 0) {
      return std::string("a chunk ran outside its shard");
    }
    return obs::metrics_json(target, -1.0);
  };
  const std::string reference[2] = {run(1, 0), run(1, 5)};
  std::atomic<int> ready{0};
  std::string mismatch[2];
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < 2; ++c) {
    callers.emplace_back([&, c] {
      ready.fetch_add(1);
      while (ready.load() < 2) std::this_thread::yield();
      for (int iter = 0; iter < 200; ++iter) {
        const std::string got = run(4, c * 5);
        if (got != reference[c]) {
          mismatch[c] = got;
          return;
        }
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(mismatch[0], "");
  EXPECT_EQ(mismatch[1], "");
}

TEST(ParallelFor, FirstExceptionPropagates) {
  EXPECT_THROW(common::parallel_for(
                   64,
                   [](std::size_t i) {
                     if (i == 17) throw std::runtime_error("boom");
                   },
                   {.threads = 4}),
               std::runtime_error);
}

TEST(DefaultThreads, OverrideWinsAndClears) {
  common::set_default_threads(3);
  EXPECT_EQ(common::default_threads(), 3u);
  common::set_default_threads(0);
  EXPECT_GE(common::default_threads(), 1u);
}

// ------------------------------------------------------- telemetry merge

TEST(RegistryMerge, CountersGaugesRatesHistograms) {
  obs::Registry a;
  obs::Registry b;
  a.add(a.counter("c"), 3);
  b.add(b.counter("c"), 4);
  b.add(b.counter("only_b"), 7);
  a.set(a.gauge("g"), 1.0);
  b.set(b.gauge("g"), 2.5);
  a.mark(a.rate("r"), true);
  b.mark(b.rate("r"), false);
  b.mark(b.rate("r"), true);
  a.observe(a.histogram("h"), 10.0);
  b.observe(b.histogram("h"), 20.0);
  b.observe(b.histogram("h"), 30.0);

  a.merge_from(b);
  EXPECT_EQ(a.value(a.counter("c")), 7u);
  EXPECT_EQ(a.value(a.counter("only_b")), 7u);
  EXPECT_EQ(a.value(a.gauge("g")), 2.5);  // last writer wins
  EXPECT_EQ(a.value(a.rate("r")).trials(), 3u);
  EXPECT_EQ(a.value(a.rate("r")).successes(), 2u);
  const auto& h = a.value(a.histogram("h"));
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 60.0);
  EXPECT_DOUBLE_EQ(h.min(), 10.0);
  EXPECT_DOUBLE_EQ(h.max(), 30.0);
}

TEST(RegistryMerge, UnwrittenGaugeDoesNotClobber) {
  obs::Registry global_like;
  obs::Registry shard;
  global_like.set(global_like.gauge("g"), 4.0);
  // The shard registered the gauge (as make_telemetry-style resolution
  // does) but never set it: the merge must keep the destination value.
  shard.gauge("g");
  shard.add(shard.counter("c"), 1);
  global_like.merge_from(shard);
  EXPECT_EQ(global_like.value(global_like.gauge("g")), 4.0);
  // A written 0 is still a real write and does override.
  shard.set(shard.gauge("g"), 0.0);
  global_like.merge_from(shard);
  EXPECT_EQ(global_like.value(global_like.gauge("g")), 0.0);
}

TEST(RegistryMerge, HistogramBucketCountsAreExact) {
  obs::LatencyHistogram a;
  obs::LatencyHistogram b;
  for (int i = 1; i <= 100; ++i) a.add(i);
  for (int i = 101; i <= 200; ++i) b.add(i);
  obs::LatencyHistogram whole;
  for (int i = 1; i <= 200; ++i) whole.add(i);
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_DOUBLE_EQ(a.sum(), whole.sum());
  EXPECT_DOUBLE_EQ(a.p50(), whole.p50());
  EXPECT_DOUBLE_EQ(a.p99(), whole.p99());
  // A merged histogram merges on (shard -> target -> copy) with every
  // bucket intact, and reset() empties every bucket.
  obs::LatencyHistogram chained;
  chained.merge(a);
  for (std::size_t i = 0; i < obs::LatencyHistogram::kBuckets; ++i) {
    EXPECT_EQ(chained.bucket_count(i), whole.bucket_count(i)) << i;
  }
  a.reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.sum(), 0.0);
  for (std::size_t i = 0; i < obs::LatencyHistogram::kBuckets; ++i) {
    EXPECT_EQ(a.bucket_count(i), 0u) << i;
  }
}

TEST(RegistryMerge, ThreadOverrideRedirectsGlobal) {
  obs::Registry shard;
  obs::Registry* prev = obs::Registry::set_thread_override(&shard);
  obs::Registry::global().add(
      obs::Registry::global().counter("override_probe"));
  obs::Registry::set_thread_override(prev);
  EXPECT_EQ(shard.value(shard.counter("override_probe")), 1u);
  // The real global never saw the increment.
  auto& global = obs::Registry::global();
  EXPECT_EQ(global.value(global.counter("override_probe")), 0u);
}

TEST(ParallelFor, ShardCountersSumIntoGlobal) {
  auto& global = obs::Registry::global();
  const auto handle = global.counter("parallel_test.shard_sum");
  const std::uint64_t before = global.value(handle);
  common::parallel_for(
      100,
      [](std::size_t) {
        auto& reg = obs::Registry::global();  // the shard, inside the pool
        reg.add(reg.counter("parallel_test.shard_sum"));
      },
      {.threads = 4});
  EXPECT_EQ(global.value(handle), before + 100);
}

// --------------------------------------------------- recycled shards

// Fresh-shard hooks: a new Registry per chunk, merged in chunk order and
// then deleted. The pooled hooks must give the same merged registry.
struct FreshShard {
  obs::Registry registry;
  obs::Registry* prev = nullptr;
};
const common::ShardHooks kFreshShardHooks{
    [](void** shards, std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) shards[i] = new FreshShard;
    },
    [](void* s) {
      auto* shard = static_cast<FreshShard*>(s);
      shard->prev = obs::Registry::set_thread_override(&shard->registry);
    },
    [](void* s) {
      obs::Registry::set_thread_override(static_cast<FreshShard*>(s)->prev);
    },
    [](void* s) {
      obs::Registry::global().merge_from(static_cast<FreshShard*>(s)->registry);
    },
    [](void* const* shards, std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) {
        delete static_cast<FreshShard*>(shards[i]);
      }
    }};

// Installs `hooks` for one scope, restoring the previous ones afterwards.
class HooksGuard {
 public:
  explicit HooksGuard(const common::ShardHooks& hooks)
      : prev_(common::shard_hooks()) {
    common::set_shard_hooks(hooks);
  }
  ~HooksGuard() { common::set_shard_hooks(prev_); }
  HooksGuard(const HooksGuard&) = delete;
  HooksGuard& operator=(const HooksGuard&) = delete;

 private:
  common::ShardHooks prev_;
};

struct ProbeTelemetry {
  obs::CounterHandle hits;
  obs::CounterHandle misses;
  obs::HistogramHandle latency;
};

// Resolved through a per-thread cache, like the library's telemetry.
const ProbeTelemetry& probe_telemetry() {
  thread_local obs::PerRegistryCache<ProbeTelemetry> cache;
  return cache.get([](obs::Registry& reg) {
    return ProbeTelemetry{reg.counter("ptest.probe.hits"),
                          reg.counter("ptest.probe.misses"),
                          reg.histogram("ptest.probe_us")};
  });
}

// Two back-to-back jobs that touch different instruments, each merged
// into its own target registry; returns both targets' metrics JSON.
std::string two_jobs() {
  std::string out;
  for (const int job : {0, 1}) {
    obs::Registry target;
    obs::Registry* prev = obs::Registry::set_thread_override(&target);
    common::parallel_for(
        64,
        [job](std::size_t i) {
          auto& reg = obs::Registry::global();
          const ProbeTelemetry& probe = probe_telemetry();
          if (job == 0) {
            reg.add(probe.hits, i);
            reg.add(reg.counter("ptest.job0.items"));
            reg.observe(probe.latency, static_cast<double>(i % 5) + 1.0);
            reg.mark(reg.rate("ptest.job0.auth"), i % 2 == 0);
            reg.set(reg.gauge("ptest.job0.level"), static_cast<double>(i));
          } else {
            // Resolves the probe handles but writes only one of them.
            reg.add(probe.misses);
            reg.add(reg.counter("ptest.job1.items"), 2);
          }
        },
        {.threads = 4});
    obs::Registry::set_thread_override(prev);
    out += obs::metrics_json(target, -1.0);
  }
  return out;
}

TEST(RecycledShards, BackToBackJobsMatchFreshShards) {
  const std::string pooled = two_jobs();
  std::string fresh;
  {
    const HooksGuard guard(kFreshShardHooks);
    fresh = two_jobs();
  }
  EXPECT_EQ(pooled, fresh);
  // Job 1 resolved the probe without writing hits: the name still
  // reaches its target (at 0), as it does with fresh shards ...
  EXPECT_NE(pooled.find("\"ptest.probe.hits\": 0"), std::string::npos);
  // ... and job 0's instruments do not leak into job 1's target.
  EXPECT_EQ(pooled.find("ptest.job0.items"),
            pooled.rfind("ptest.job0.items"));
  EXPECT_EQ(pooled.find("ptest.job0.auth"), pooled.rfind("ptest.job0.auth"));
  EXPECT_EQ(pooled.find("ptest.job0.level"),
            pooled.rfind("ptest.job0.level"));
}

TEST(RecycledShards, ResetShardMergesWhatItsNextUserResolves) {
  // One shard, two uses on this thread, the way the pool recycles it.
  // The second use resolves the probe through the same per-thread cache
  // but writes only `misses`: like a fresh shard, the merge must carry
  // all three probe names (two at zero) and nothing from the first use.
  const auto use = [](obs::Registry& shard, bool first) {
    obs::Registry* prev = obs::Registry::set_thread_override(&shard);
    auto& reg = obs::Registry::global();
    const ProbeTelemetry& probe = probe_telemetry();
    if (first) {
      reg.add(probe.hits, 5);
      reg.observe(probe.latency, 2.0);
      reg.add(reg.counter("ptest.first_use"));
    } else {
      reg.add(probe.misses);
    }
    obs::Registry::set_thread_override(prev);
  };
  obs::Registry shard;
  use(shard, true);
  obs::Registry first_target;
  first_target.merge_from(shard);
  shard.reset();
  use(shard, false);
  obs::Registry second_target;
  second_target.merge_from(shard);

  obs::Registry fresh;
  use(fresh, false);
  obs::Registry reference;
  reference.merge_from(fresh);
  EXPECT_EQ(obs::metrics_json(second_target), obs::metrics_json(reference));
  EXPECT_NE(obs::metrics_json(first_target).find("ptest.first_use"),
            std::string::npos);
  EXPECT_EQ(obs::metrics_json(second_target).find("ptest.first_use"),
            std::string::npos);
}

// Records every shard the installed hooks acquire, and the bytes that
// acquiring them allocated.
common::ShardHooks g_real_hooks;
std::vector<void*> g_created;
std::uint64_t g_create_bytes = 0;
int g_acquire_calls = 0;

TEST(RecycledShards, SameShapeJobReusesEveryShard) {
  g_real_hooks = common::shard_hooks();
  common::ShardHooks recording = g_real_hooks;
  // Acquire runs once per job, on the calling thread.
  recording.acquire = [](void** shards, std::size_t n) {
    const std::uint64_t before = tls_new_bytes;
    g_real_hooks.acquire(shards, n);
    g_create_bytes += tls_new_bytes - before;
    ++g_acquire_calls;
    g_created.insert(g_created.end(), shards, shards + n);
  };
  const HooksGuard guard(recording);
  std::vector<std::set<void*>> shards;
  std::vector<std::uint64_t> create_bytes;
  for (int job = 0; job < 3; ++job) {
    g_created.clear();
    g_create_bytes = 0;
    g_acquire_calls = 0;
    common::parallel_for(
        64,
        [](std::size_t) {
          auto& reg = obs::Registry::global();
          reg.add(reg.counter("ptest.reuse"));
        },
        {.threads = 4});
    ASSERT_EQ(g_created.size(), 16u);  // 4 threads x 4 chunks each
    EXPECT_EQ(g_acquire_calls, 1);     // one batch for the whole job
    shards.emplace_back(g_created.begin(), g_created.end());
    create_bytes.push_back(g_create_bytes);
  }
  EXPECT_EQ(shards[0].size(), 16u);
  EXPECT_EQ(shards[1], shards[0]);
  EXPECT_EQ(shards[2], shards[0]);
  // Later jobs take every shard from the pool: creating them allocates
  // nothing.
  EXPECT_EQ(create_bytes[1], 0u);
  EXPECT_EQ(create_bytes[2], 0u);
}

TEST(RecycledShards, ShardTracerMemoryFollowsEventsRecorded) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_capacity(16384);
  tracer.enable(true);
  constexpr std::size_t kChunks = 64;
  constexpr std::size_t kEventsPerChunk = 10;
  const std::uint64_t before = g_new_bytes.load();
  common::parallel_for(
      kChunks * kEventsPerChunk,
      [](std::size_t i) {
        obs::Tracer::global().record(obs::TraceKind::kAnnounce, i,
                                     static_cast<std::uint32_t>(i));
      },
      {.threads = 4, .grain = kEventsPerChunk});
  const std::uint64_t allocated = g_new_bytes.load() - before;
  EXPECT_EQ(tracer.total_recorded(), kChunks * kEventsPerChunk);
  // Full-capacity shard rings would cost kChunks x 16384 events and spans
  // (~90 MB); growable ones cost the events recorded plus a few KiB of
  // bookkeeping per shard, whether the pool had the shard or not.
  EXPECT_LT(allocated, kChunks * 16 * 1024) << "bytes allocated by the job";
  tracer.clear();
  tracer.enable(false);
}

// ---------------------------------------------- end-to-end determinism
//
// The container running CI may expose a single core; oversubscribed
// worker threads still exercise cross-thread handoff and the shard
// merge, so these determinism checks are valid at any core count.

TEST(Determinism, MonteCarloIdenticalAcrossThreadCounts) {
  analysis::MonteCarloConfig config;
  config.trials = 400;
  config.seed = 99;
  std::vector<analysis::MonteCarloResult> results;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const ThreadGuard guard(threads);
    results.push_back(analysis::measure_attack_success(config));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    // Bitwise equality, not tolerance: same trials, same outcomes.
    EXPECT_EQ(results[i].measured_attack_success,
              results[0].measured_attack_success);
    EXPECT_EQ(results[i].wilson_lo, results[0].wilson_lo);
    EXPECT_EQ(results[i].wilson_hi, results[0].wilson_hi);
    EXPECT_EQ(results[i].trials, results[0].trials);
  }
}

TEST(Determinism, CostCurveIdenticalAcrossThreadCounts) {
  const auto base = game::GameParams::paper_defaults(0.9, 1);
  std::vector<std::vector<game::CostAtEss>> curves;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const ThreadGuard guard(threads);
    curves.push_back(game::cost_curve(base, 24));
  }
  for (std::size_t i = 1; i < curves.size(); ++i) {
    ASSERT_EQ(curves[i].size(), curves[0].size());
    for (std::size_t m = 0; m < curves[0].size(); ++m) {
      EXPECT_EQ(curves[i][m].cost, curves[0][m].cost) << "m=" << m + 1;
      EXPECT_EQ(curves[i][m].ess.kind, curves[0][m].ess.kind);
      EXPECT_EQ(curves[i][m].ess.point.x, curves[0][m].ess.point.x);
      EXPECT_EQ(curves[i][m].ess.point.y, curves[0][m].ess.point.y);
    }
  }
}

TEST(Determinism, ChaosSoaksIdenticalAcrossThreadCounts) {
  std::vector<analysis::ChaosConfig> configs(3);
  configs[0].seed = 7;
  configs[1].seed = 11;
  configs[1].mix.jitter = true;
  configs[2].seed = 23;
  configs[2].mix.clock_drift = true;
  for (auto& c : configs) {
    c.receivers = 2;
    c.chain_length = 24;
    c.fault_from = 6;
    c.fault_until = 10;
    c.reconverge_within = 10;
  }
  std::vector<std::vector<analysis::ChaosReport>> runs;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const ThreadGuard guard(threads);
    runs.push_back(analysis::run_chaos_soaks(configs));
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    ASSERT_EQ(runs[i].size(), runs[0].size());
    for (std::size_t s = 0; s < runs[0].size(); ++s) {
      EXPECT_EQ(runs[i][s].forged_accepted_total,
                runs[0][s].forged_accepted_total);
      EXPECT_EQ(runs[i][s].all_reconverged, runs[0][s].all_reconverged);
      EXPECT_EQ(runs[i][s].total_intervals, runs[0][s].total_intervals);
      ASSERT_EQ(runs[i][s].dap.size(), runs[0][s].dap.size());
      for (std::size_t r = 0; r < runs[0][s].dap.size(); ++r) {
        EXPECT_EQ(runs[i][s].dap[r].authenticated,
                  runs[0][s].dap[r].authenticated);
        EXPECT_EQ(runs[i][s].teslapp[r].authenticated,
                  runs[0][s].teslapp[r].authenticated);
      }
    }
  }
}

TEST(Determinism, TelemetryExportBytesIdenticalAcrossThreadCounts) {
  // The full serialized telemetry surface — metrics JSON (counters,
  // gauges, rates, histogram buckets), the snapshot stream, and the
  // trace JSONL — must be byte-identical at any thread count, not just
  // numerically close. Registry updates run against a private registry
  // via a thread override (shards merge into the override because the
  // merge runs on the calling thread). The tracer is sized and enabled
  // before the fan-out, because the calling thread copies its size and
  // enabled state into the shards it acquires — exactly the bench setup.
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_capacity(512);
  tracer.enable(true);
  auto run = [&tracer](std::size_t threads) {
    tracer.clear();
    obs::Registry local;
    obs::Registry* prev_reg = obs::Registry::set_thread_override(&local);
    common::parallel_for(
        96,
        [](std::size_t i) {
          auto& reg = obs::Registry::global();
          reg.add(reg.counter("ptest.items"));
          reg.mark(reg.rate("ptest.auth"), i % 3 != 0);
          reg.observe(reg.histogram("ptest.latency_us"),
                      static_cast<double>(i % 7) * 10.0 + 1.0);
          obs::SpanEvent span;
          span.uid = static_cast<std::uint64_t>(i) + 1;
          span.trace = common::subseed(99, i);
          span.t_begin = i * 100;
          span.t_end = i * 100 + 40;
          span.node = static_cast<std::uint32_t>(i % 5);
          span.kind = obs::SpanKind::kVerify;
          span.tag = obs::SpanTag::kAuthOk;
          obs::Tracer::global().record_span(span);
        },
        {.threads = threads});
    obs::Registry::set_thread_override(prev_reg);

    obs::Snapshotter snap("ptest", 1000);
    snap.sample(local, 1000);
    std::ostringstream trace_out;
    tracer.export_jsonl(trace_out);
    return obs::metrics_json(local, -1.0) + snap.stream() + trace_out.str();
  };
  const std::string serial = run(1);
  EXPECT_GT(serial.size(), 0u);
  EXPECT_NE(serial.find("\"ptest.items\": 96"), std::string::npos);
  EXPECT_NE(serial.find("\"span\":\"verify\""), std::string::npos);
  EXPECT_EQ(serial, run(4));
  EXPECT_EQ(serial, run(8));
  tracer.clear();
  tracer.enable(false);
}

TEST(Determinism, MergedCountersIdenticalAcrossThreadCounts) {
  // The analytic outputs being identical is necessary but not
  // sufficient: the merged telemetry stream must agree too.
  analysis::MonteCarloConfig config;
  config.trials = 200;
  config.seed = 5;
  std::vector<std::uint64_t> prf_calls;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const ThreadGuard guard(threads);
    auto& global = obs::Registry::global();
    const auto handle = global.counter("crypto.prf_calls");
    const std::uint64_t before = global.value(handle);
    (void)analysis::measure_attack_success(config);
    prf_calls.push_back(global.value(handle) - before);
  }
  EXPECT_GT(prf_calls[0], 0u);
  EXPECT_EQ(prf_calls[1], prf_calls[0]);
  EXPECT_EQ(prf_calls[2], prf_calls[0]);
}

}  // namespace
}  // namespace dap
