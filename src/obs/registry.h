#pragma once
// Handle-based telemetry registry.
//
// Instruments (counters, gauges, log-bucketed latency histograms,
// success-rate estimators) are registered once by name and updated
// through small integer handles, so hot paths never hash or compare
// strings and never allocate. Names are only touched at registration
// time and when rendering reports / JSON exports.
//
// A process-wide `Registry::global()` aggregates protocol and solver
// telemetry; simulation components that need isolated counters (one
// `sim::Medium` per run, say) own a private Registry instead.
//
// Not thread-safe: instruments stay lock-free and non-atomic so the
// per-packet path stays cheap. Parallel experiments instead run each
// chunk of work against a shard Registry (bound through
// `set_thread_override`, installed by the common::parallel ShardHooks)
// and combine shards with `merge_from` after the join — counters sum,
// histograms merge bucket-wise, rates add their trial totals. Shards
// come from a pool: after its merge a shard is reset() and reused by a
// later chunk, so its names and histogram storage are allocated once.
// The pool never shrinks: a pooled shard keeps its peak name, histogram
// and tracer-ring storage for the life of the process.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/stats.h"

namespace dap::obs {

/// Typed wrappers around an instrument's slot index. Distinct types keep
/// a CounterHandle from being passed where a HistogramHandle is expected.
struct CounterHandle {
  std::uint32_t index = 0;
};
struct GaugeHandle {
  std::uint32_t index = 0;
};
struct HistogramHandle {
  std::uint32_t index = 0;
};
struct RateHandle {
  std::uint32_t index = 0;
};

/// Log-bucketed histogram for latency-like positive values.
///
/// Buckets are base-2 octaves split into `kSubBuckets` linear
/// sub-buckets, so every recorded value lands in a bucket whose width is
/// at most 1/kSubBuckets of its magnitude (<= 12.5% relative error on
/// percentile estimates). Exact moments (mean/stddev/min/max via
/// Welford) ride alongside the buckets. Updates are allocation-free.
class LatencyHistogram {
 public:
  static constexpr int kMinExponent = -20;  // ~1e-6: sub-ns when in us
  static constexpr int kMaxExponent = 43;   // ~8.8e12: ~102 days in us
  static constexpr std::size_t kSubBuckets = 8;
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kMaxExponent - kMinExponent + 1) * kSubBuckets +
      2;  // + underflow and overflow buckets

  LatencyHistogram();

  void add(double value) noexcept;
  /// Records `weight` identical observations of `value` in one update:
  /// buckets and count grow by `weight`, the sum by value·weight, and the
  /// moments fold in through RunningStats::merge. A 1-in-N sampled timer
  /// passes weight N, so count, sum and quantiles stay per-call estimates.
  void add(double value, std::uint64_t weight) noexcept;

  /// Quantile estimate in [0, 1]; returns the midpoint of the covering
  /// bucket clamped into [min, max]. 0 with no samples.
  [[nodiscard]] double quantile(double q) const noexcept;
  [[nodiscard]] double p50() const noexcept { return quantile(0.50); }
  [[nodiscard]] double p90() const noexcept { return quantile(0.90); }
  [[nodiscard]] double p99() const noexcept { return quantile(0.99); }

  [[nodiscard]] std::size_t count() const noexcept {
    return moments_.count();
  }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double min() const noexcept { return moments_.min(); }
  [[nodiscard]] double max() const noexcept { return moments_.max(); }
  /// Exact streaming moments (Welford), the mean/sd that report() prints.
  [[nodiscard]] const common::RunningStats& moments() const noexcept {
    return moments_;
  }

  /// Folds another histogram in: bucket counts add element-wise (the
  /// bucket layout is static, so this is exact), Welford moments combine
  /// via RunningStats::merge, sums add. Quantiles of the merged histogram
  /// equal those of the union stream; mean/stddev may differ from the
  /// sequential stream in the last ulp (Welford is not associative).
  void merge(const LatencyHistogram& other) noexcept;

  /// Back to the empty histogram (no-op when nothing was recorded).
  void reset() noexcept;

  // Bucket introspection, used by the boundary tests.
  [[nodiscard]] static std::size_t bucket_index(double value) noexcept;
  /// Inclusive lower edge of bucket `i` (-inf-side buckets report 0).
  [[nodiscard]] static double bucket_lower(std::size_t i) noexcept;
  /// Exclusive upper edge of bucket `i`.
  [[nodiscard]] static double bucket_upper(std::size_t i) noexcept;
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const noexcept {
    return i < kBuckets ? counts_[i] : 0;
  }

 private:
  void note_bucket(std::size_t i) noexcept {
    first_ = std::min(first_, i);
    last_ = std::max(last_, i);
  }

  std::vector<std::uint64_t> counts_;  // sized kBuckets at construction
  // Occupied buckets lie in [first_, last_] (empty: first_ > last_), so
  // merge() and reset() touch a few octaves, not all kBuckets.
  std::size_t first_ = kBuckets;
  std::size_t last_ = 0;
  common::RunningStats moments_;
  double sum_ = 0.0;
};

class Registry {
 public:
  Registry();
  Registry(const Registry& other) = delete;
  Registry& operator=(const Registry& other) = delete;
  ~Registry() = default;

  // ---- Registration (idempotent: re-registering a name returns the
  // existing handle). The slow path: one hash lookup + possible insert.
  CounterHandle counter(std::string_view name);
  GaugeHandle gauge(std::string_view name);
  HistogramHandle histogram(std::string_view name);
  RateHandle rate(std::string_view name);

  // ---- Hot-path updates: index into stable storage, no strings, no
  // allocation.
  void add(CounterHandle h, std::uint64_t by = 1) noexcept {
    counters_[h.index] += by;
  }
  void set(GaugeHandle h, double value) noexcept {
    gauges_[h.index] = value;
    gauge_written_[h.index] = true;
  }
  void observe(HistogramHandle h, double value) noexcept {
    histograms_[h.index].add(value);
  }
  /// Records `value` as `weight` identical observations (SampledTimer).
  void observe(HistogramHandle h, double value, std::uint64_t weight) noexcept {
    histograms_[h.index].add(value, weight);
  }
  void mark(RateHandle h, bool success) noexcept {
    rates_[h.index].add(success);
  }

  // ---- Reads through handles.
  [[nodiscard]] std::uint64_t value(CounterHandle h) const noexcept {
    return counters_[h.index];
  }
  [[nodiscard]] double value(GaugeHandle h) const noexcept {
    return gauges_[h.index];
  }
  [[nodiscard]] const LatencyHistogram& value(HistogramHandle h) const noexcept {
    return histograms_[h.index];
  }
  [[nodiscard]] const common::RateEstimator& value(RateHandle h) const noexcept {
    return rates_[h.index];
  }

  // ---- Lookups by name (report/test paths; nullptr when absent).
  [[nodiscard]] const std::uint64_t* find_counter(std::string_view name) const;
  [[nodiscard]] const double* find_gauge(std::string_view name) const;
  [[nodiscard]] const LatencyHistogram* find_histogram(
      std::string_view name) const;
  [[nodiscard]] const common::RateEstimator* find_rate(
      std::string_view name) const;

  /// (name, slot) pairs per instrument type, sorted by name — the
  /// iteration order of reports and exports.
  [[nodiscard]] std::vector<std::pair<std::string_view, std::uint32_t>>
  sorted_counters() const;
  [[nodiscard]] std::vector<std::pair<std::string_view, std::uint32_t>>
  sorted_gauges() const;
  [[nodiscard]] std::vector<std::pair<std::string_view, std::uint32_t>>
  sorted_histograms() const;
  [[nodiscard]] std::vector<std::pair<std::string_view, std::uint32_t>>
  sorted_rates() const;

  [[nodiscard]] std::size_t instruments() const noexcept {
    return counters_.size() + gauges_.size() + histograms_.size() +
           rates_.size();
  }

  /// Renders counters/rates/histogram-moments as an aligned text block.
  /// `skip_zero_counters` drops counters that were never incremented —
  /// components that pre-register handles at construction (sim::Medium)
  /// would otherwise print "= 0" lines for events that never happened.
  [[nodiscard]] std::string report(bool skip_zero_counters = false) const;

  /// Folds `other` into this registry by *name* (slot indices may differ
  /// between the two): counters add, gauges take the other's value but
  /// only when `other` actually set() it (a registered-but-never-written
  /// gauge never clobbers the destination with its default 0), histograms
  /// merge, rate estimators add their totals. Instruments only `other`
  /// knows are registered here first, so after the merge every name in
  /// `other` resolves here — except instruments `other` neither
  /// registered nor wrote since its last reset(), which are skipped.
  /// Contracts reject self-merge and check that shared names resolve to
  /// consistent slots. Note gauges written by
  /// several parallel shards still merge in chunk order (the last
  /// *writing* chunk wins, not the temporally latest set()) — gauges are
  /// a poor fit for cross-shard aggregation; prefer counters/histograms
  /// inside parallel regions.
  void merge_from(const Registry& other);

  /// Identifier distinguishing registry *instances* (never 0, never
  /// reused). Cached-handle holders key their caches on
  /// this so a handle resolved against one registry is never used to
  /// index another — see PerRegistryCache.
  [[nodiscard]] std::uint64_t uid() const noexcept { return uid_; }

  /// Zeroes every value but keeps names and slots, so a recycled
  /// parallel_for shard allocates nothing. Every instrument counts as
  /// untouched until it is registered again or written, and merge_from
  /// skips untouched ones. The uid changes, so PerRegistryCache holders
  /// re-resolve by name — an allocation-free lookup that marks exactly
  /// the instruments a fresh registry would have had registered.
  void reset() noexcept;

  /// The process-wide registry protocol instrumentation feeds — unless
  /// the calling thread has a shard override installed, in which case
  /// that shard is returned. parallel_for's telemetry hooks install the
  /// override for the duration of each chunk.
  static Registry& global();

  /// Installs `reg` as the calling thread's `global()` (nullptr
  /// restores the process-wide registry). Returns the previous override
  /// so nested scopes can save/restore.
  static Registry* set_thread_override(Registry* reg) noexcept;

 private:
  struct NameTable {
    // Name -> slot index kept sorted by name: binary-search lookup with
    // no hashing, and — unlike an unordered_map — deterministic layout
    // and iteration by construction, so nothing downstream can ever pick
    // up a hash-seed-dependent order. Registration is the slow path;
    // instrument counts are small (tens), so O(n) insertion is fine.
    std::vector<std::pair<std::string, std::uint32_t>> index;
    std::vector<std::string> names;  // slot -> name
    // slot -> registered since the last reset() (see merge_from).
    std::vector<bool> live;
    // Returns the slot for `name`, inserting a new one (== size) if new,
    // and marks it live.
    std::uint32_t intern(std::string_view name, std::size_t next_slot);
    [[nodiscard]] const std::uint32_t* find(std::string_view name) const;
  };

  std::uint64_t uid_;
  NameTable counter_names_;
  NameTable gauge_names_;
  NameTable histogram_names_;
  NameTable rate_names_;
  // Deques: O(1) indexed access with stable addresses, so pointers
  // handed out by find_* survive later registrations.
  std::deque<std::uint64_t> counters_;
  std::deque<double> gauges_;
  /// Parallel to gauges_: whether set() ever ran on the slot, so
  /// merge_from can skip registered-but-unwritten gauges.
  std::deque<bool> gauge_written_;
  std::deque<LatencyHistogram> histograms_;
  std::deque<common::RateEstimator> rates_;
};

/// Per-thread cache of resolved handles, keyed on the registry uid.
///
/// The old idiom `static const Telemetry t{resolve(Registry::global())};`
/// pins handles to whichever registry was live at first call — under
/// shard overrides those handles would index a *different* registry
/// (out-of-bounds or silently wrong slot). Holders instead keep a
/// `thread_local PerRegistryCache<Telemetry>` and call `get(make)`,
/// which re-resolves whenever the thread's effective registry changes:
///
///   const PrfTelemetry& prf_telemetry() {
///     thread_local PerRegistryCache<PrfTelemetry> cache;
///     return cache.get([](Registry& reg) {
///       return PrfTelemetry{reg.counter("crypto.prf_calls"), ...};
///     });
///   }
template <typename T>
class PerRegistryCache {
 public:
  template <typename MakeFn>
  [[nodiscard]] const T& get(MakeFn&& make) {
    Registry& reg = Registry::global();
    if (bound_uid_ != reg.uid()) {
      value_ = make(reg);
      bound_uid_ = reg.uid();
    }
    return value_;
  }

 private:
  T value_{};
  std::uint64_t bound_uid_ = 0;  // 0 never matches a live registry
};

}  // namespace dap::obs
