#pragma once
// RAII latency probes feeding obs::Registry histograms.
//
// A ScopedTimer reads the steady clock on construction and records the
// elapsed wall time in microseconds into a pre-registered histogram on
// destruction — two clock reads plus one allocation-free histogram
// update per timed scope. That is fine for cold scopes (a
// chain build, a solver run) but is the largest cost of a per-packet
// call, so per-call sites use a SampledTimer instead: it times the first
// call on each thread and then one call in each later block of 64. Each
// sample is weighted by the calls it stands for: 1 for the first call,
// which is often a cold one, and 64 after that. The sample's place in
// its block is pseudo-random, so every later call has the same 1-in-64
// chance whatever the period of the call stream (a fixed stride would
// alias with, say, 80 announce copies per interval and over-sample the
// first copy). Count, sum and quantiles of the histogram stay estimates
// of every call, and a call that is not sampled costs a decrement and a
// branch.
//
// Both honour `set_timing_enabled(false)`, which reduces a timer to one
// relaxed atomic load.

#include <atomic>
#include <chrono>
#include <cstdint>

#include "common/rng.h"
#include "obs/registry.h"

namespace dap::obs {

namespace detail {
inline std::atomic<bool>& timing_flag() noexcept {
  static std::atomic<bool> enabled{true};
  return enabled;
}
}  // namespace detail

/// Globally enables/disables timer clock reads (default: enabled).
inline void set_timing_enabled(bool enabled) noexcept {
  detail::timing_flag().store(enabled, std::memory_order_relaxed);
}
[[nodiscard]] inline bool timing_enabled() noexcept {
  return detail::timing_flag().load(std::memory_order_relaxed);
}

/// Times every call of its scope.
class ScopedTimer {
 public:
  ScopedTimer(Registry& registry, HistogramHandle handle) noexcept
      : registry_(timing_enabled() ? &registry : nullptr), handle_(handle) {
    if (registry_ != nullptr) start_ = std::chrono::steady_clock::now();
  }

  /// Times into the global registry under `handle`.
  explicit ScopedTimer(HistogramHandle handle) noexcept
      : ScopedTimer(Registry::global(), handle) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    if (registry_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    registry_->observe(
        handle_,
        std::chrono::duration<double, std::micro>(elapsed).count());
  }

 private:
  Registry* registry_;
  HistogramHandle handle_;
  std::chrono::steady_clock::time_point start_;
};

/// Sampling state of one SampledTimer site on one thread. Calls are cut
/// into blocks: the first call alone, then blocks of SampledTimer::kPeriod
/// calls. One call per block is timed.
struct SampleSite {
  std::uint32_t countdown = 0;  // calls to skip before the next sample
  std::uint32_t offset = 0;     // position of the last sample in its block
  std::uint64_t block = 0;      // blocks sampled so far (never wraps)
};

/// Times the first call of a site on a thread (weight 1), then one call
/// in each later block of kPeriod calls (weight kPeriod). Declare the
/// site's state `thread_local` beside the timer:
///
///   thread_local obs::SampleSite site;
///   const obs::SampledTimer timer(telemetry.latency, site);
class SampledTimer {
 public:
  static constexpr std::uint32_t kPeriod = 64;

  SampledTimer(Registry& registry, HistogramHandle handle,
               SampleSite& site) noexcept
      : weight_(take_sample(site)),
        registry_(weight_ != 0 ? &registry : nullptr),
        handle_(handle) {
    start();
  }

  /// Times into the global registry under `handle`.
  SampledTimer(HistogramHandle handle, SampleSite& site) noexcept
      : weight_(take_sample(site)),
        registry_(weight_ != 0 ? &Registry::global() : nullptr),
        handle_(handle) {
    start();
  }

  SampledTimer(const SampledTimer&) = delete;
  SampledTimer& operator=(const SampledTimer&) = delete;

  ~SampledTimer() {
    if (registry_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    registry_->observe(
        handle_, std::chrono::duration<double, std::micro>(elapsed).count(),
        weight_);
  }

 private:
  void start() noexcept {
    if (registry_ != nullptr) start_ = std::chrono::steady_clock::now();
  }

  // The weight of this call's sample (the size of its block), or 0 when
  // the call is not timed.
  [[nodiscard]] static std::uint32_t take_sample(SampleSite& site) noexcept {
    if (!timing_enabled()) return 0;
    if (site.countdown != 0) {
      --site.countdown;
      return 0;
    }
    const std::uint32_t weight = site.block == 0 ? 1 : kPeriod;
    // Skip the rest of this block, then place the next block's sample by
    // a stateless hash of its index.
    std::uint64_t state = ++site.block;
    const auto next = static_cast<std::uint32_t>(common::splitmix64(state) %
                                                 kPeriod);
    site.countdown = weight - 1 - site.offset + next;
    site.offset = next;
    return weight;
  }

  std::uint32_t weight_;
  Registry* registry_;
  HistogramHandle handle_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace dap::obs
