#include "obs/registry.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <utility>

#include "common/contracts.h"
#include "common/csv.h"
#include "common/parallel.h"
#include "common/sync.h"
#include "obs/tracer.h"

namespace dap::obs {

namespace {

/// Source of registry uids: never 0 (the PerRegistryCache "unbound"
/// sentinel), never reused. Atomic so shard registries can be
/// constructed concurrently on pool threads.
std::uint64_t next_registry_uid() noexcept {
  static std::atomic<std::uint64_t> next{1};  // dap-lint: allow(global-state)
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// The calling thread's shard override (nullptr = process registry).
thread_local Registry* tls_registry_override = nullptr;

}  // namespace

// ------------------------------------------------------ LatencyHistogram

LatencyHistogram::LatencyHistogram() : counts_(kBuckets, 0) {}

std::size_t LatencyHistogram::bucket_index(double value) noexcept {
  if (!(value > 0.0)) return 0;  // <= 0 and NaN land in the underflow bucket
  const int e = std::ilogb(value);
  if (e < kMinExponent) return 0;
  if (e > kMaxExponent) return kBuckets - 1;
  // value = mantissa * 2^e with mantissa in [1, 2): linear split of the
  // octave into kSubBuckets equal slices.
  const double mantissa = std::scalbn(value, -e);
  auto sub = static_cast<std::size_t>((mantissa - 1.0) *
                                      static_cast<double>(kSubBuckets));
  sub = std::min(sub, kSubBuckets - 1);
  return 1 + static_cast<std::size_t>(e - kMinExponent) * kSubBuckets + sub;
}

double LatencyHistogram::bucket_lower(std::size_t i) noexcept {
  if (i == 0) return 0.0;
  if (i >= kBuckets - 1) return std::scalbn(1.0, kMaxExponent + 1);
  const std::size_t slot = i - 1;
  const int e = kMinExponent + static_cast<int>(slot / kSubBuckets);
  const double sub = static_cast<double>(slot % kSubBuckets);
  return std::scalbn(1.0 + sub / static_cast<double>(kSubBuckets), e);
}

double LatencyHistogram::bucket_upper(std::size_t i) noexcept {
  if (i == 0) return std::scalbn(1.0, kMinExponent);
  if (i >= kBuckets - 1) return std::numeric_limits<double>::infinity();
  return bucket_lower(i + 1);
}

void LatencyHistogram::add(double value) noexcept {
  const std::size_t i = bucket_index(value);
  ++counts_[i];
  note_bucket(i);
  moments_.add(value);
  sum_ += value;
}

void LatencyHistogram::add(double value, std::uint64_t weight) noexcept {
  if (weight == 0) return;
  const std::size_t i = bucket_index(value);
  counts_[i] += weight;
  note_bucket(i);
  moments_.add(value, static_cast<std::size_t>(weight));
  sum_ += value * static_cast<double>(weight);
}

void LatencyHistogram::merge(const LatencyHistogram& other) noexcept {
  if (other.count() == 0) return;  // an empty histogram adds nothing
  for (std::size_t i = other.first_; i <= other.last_; ++i) {
    counts_[i] += other.counts_[i];
  }
  note_bucket(other.first_);
  note_bucket(other.last_);
  moments_.merge(other.moments_);
  sum_ += other.sum_;
}

void LatencyHistogram::reset() noexcept {
  if (count() == 0) return;
  std::fill(counts_.begin() + static_cast<std::ptrdiff_t>(first_),
            counts_.begin() + static_cast<std::ptrdiff_t>(last_) + 1, 0);
  first_ = kBuckets;
  last_ = 0;
  moments_ = common::RunningStats{};
  sum_ = 0.0;
}

double LatencyHistogram::quantile(double q) const noexcept {
  const std::size_t n = moments_.count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  if (q == 0.0) return moments_.min();
  if (q == 1.0) return moments_.max();
  // Nearest-rank on the 0-based sample index.
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(n - 1) + 0.5);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += counts_[i];
    if (seen > rank) {
      double estimate;
      if (i == 0) {
        estimate = moments_.min();
      } else if (i == kBuckets - 1) {
        estimate = moments_.max();
      } else {
        estimate = 0.5 * (bucket_lower(i) + bucket_upper(i));
      }
      return std::clamp(estimate, moments_.min(), moments_.max());
    }
  }
  return moments_.max();  // unreachable: buckets cover every double
}

// -------------------------------------------------------------- Registry

Registry::Registry() : uid_(next_registry_uid()) {}

namespace {

/// First entry in the sorted (name, slot) index not ordering before
/// `name` (plain lower_bound with heterogeneous comparison).
std::vector<std::pair<std::string, std::uint32_t>>::const_iterator
index_lower_bound(
    const std::vector<std::pair<std::string, std::uint32_t>>& index,
    std::string_view name) {
  return std::lower_bound(
      index.begin(), index.end(), name,
      [](const std::pair<std::string, std::uint32_t>& entry,
         std::string_view key) { return entry.first < key; });
}

}  // namespace

std::uint32_t Registry::NameTable::intern(std::string_view name,
                                          std::size_t next_slot) {
  const auto it = index_lower_bound(index, name);
  if (it != index.end() && it->first == name) {
    live[it->second] = true;
    return it->second;
  }
  const auto slot = static_cast<std::uint32_t>(next_slot);
  index.emplace(it, std::string(name), slot);
  names.emplace_back(name);
  live.push_back(true);
  return slot;
}

const std::uint32_t* Registry::NameTable::find(std::string_view name) const {
  const auto it = index_lower_bound(index, name);
  return it != index.end() && it->first == name ? &it->second : nullptr;
}

CounterHandle Registry::counter(std::string_view name) {
  const auto slot = counter_names_.intern(name, counters_.size());
  if (slot == counters_.size()) counters_.push_back(0);
  return CounterHandle{slot};
}

GaugeHandle Registry::gauge(std::string_view name) {
  const auto slot = gauge_names_.intern(name, gauges_.size());
  if (slot == gauges_.size()) {
    gauges_.push_back(0.0);
    gauge_written_.push_back(false);
  }
  return GaugeHandle{slot};
}

HistogramHandle Registry::histogram(std::string_view name) {
  const auto slot = histogram_names_.intern(name, histograms_.size());
  if (slot == histograms_.size()) histograms_.emplace_back();
  return HistogramHandle{slot};
}

RateHandle Registry::rate(std::string_view name) {
  const auto slot = rate_names_.intern(name, rates_.size());
  if (slot == rates_.size()) rates_.emplace_back();
  return RateHandle{slot};
}

namespace {

std::vector<std::pair<std::string_view, std::uint32_t>> sorted_names(
    const std::vector<std::string>& names) {
  std::vector<std::pair<std::string_view, std::uint32_t>> out;
  out.reserve(names.size());
  for (std::uint32_t i = 0; i < names.size(); ++i) {
    out.emplace_back(names[i], i);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

const std::uint64_t* Registry::find_counter(std::string_view name) const {
  const std::uint32_t* slot = counter_names_.find(name);
  return slot == nullptr ? nullptr : &counters_[*slot];
}

const double* Registry::find_gauge(std::string_view name) const {
  const std::uint32_t* slot = gauge_names_.find(name);
  return slot == nullptr ? nullptr : &gauges_[*slot];
}

const LatencyHistogram* Registry::find_histogram(std::string_view name) const {
  const std::uint32_t* slot = histogram_names_.find(name);
  return slot == nullptr ? nullptr : &histograms_[*slot];
}

const common::RateEstimator* Registry::find_rate(std::string_view name) const {
  const std::uint32_t* slot = rate_names_.find(name);
  return slot == nullptr ? nullptr : &rates_[*slot];
}

std::vector<std::pair<std::string_view, std::uint32_t>>
Registry::sorted_counters() const {
  return sorted_names(counter_names_.names);
}
std::vector<std::pair<std::string_view, std::uint32_t>>
Registry::sorted_gauges() const {
  return sorted_names(gauge_names_.names);
}
std::vector<std::pair<std::string_view, std::uint32_t>>
Registry::sorted_histograms() const {
  return sorted_names(histogram_names_.names);
}
std::vector<std::pair<std::string_view, std::uint32_t>>
Registry::sorted_rates() const {
  return sorted_names(rate_names_.names);
}

std::string Registry::report(bool skip_zero_counters) const {
  // Counters, then rates, then observation moments, each alphabetical.
  // Example and bench stdout embeds this block, so the format is fixed.
  std::ostringstream out;
  for (const auto& [name, slot] : sorted_counters()) {
    if (skip_zero_counters && counters_[slot] == 0) continue;
    out << "  " << name << " = " << counters_[slot] << '\n';
  }
  for (const auto& [name, slot] : sorted_rates()) {
    const auto& est = rates_[slot];
    const auto [lo, hi] = est.wilson95();
    out << "  " << name << " = " << common::format_number(est.rate()) << " ["
        << common::format_number(lo) << ", " << common::format_number(hi)
        << "] over " << est.trials() << " trials\n";
  }
  for (const auto& [name, slot] : sorted_histograms()) {
    const auto& st = histograms_[slot].moments();
    out << "  " << name << " mean=" << common::format_number(st.mean())
        << " sd=" << common::format_number(st.stddev()) << " n=" << st.count()
        << '\n';
  }
  return out.str();
}

void Registry::merge_from(const Registry& other) {
  DAP_REQUIRE(this != &other, "Registry::merge_from: cannot merge with self");
  // A reset shard still holds the names of earlier chunks; skip the
  // instruments this use neither registered nor wrote, so nothing carries
  // over from one chunk to the next.
  for (std::uint32_t slot = 0; slot < other.counter_names_.names.size();
       ++slot) {
    if (!other.counter_names_.live[slot] && other.counters_[slot] == 0) {
      continue;
    }
    const std::string& name = other.counter_names_.names[slot];
    const CounterHandle h = counter(name);
    DAP_INVARIANT(counter_names_.names[h.index] == name,
                  "Registry::merge_from: counter handle/name mismatch");
    counters_[h.index] += other.counters_[slot];
  }
  for (std::uint32_t slot = 0; slot < other.gauge_names_.names.size();
       ++slot) {
    if (!other.gauge_names_.live[slot] && !other.gauge_written_[slot]) {
      continue;
    }
    const GaugeHandle h = gauge(other.gauge_names_.names[slot]);
    // Only a gauge the other registry actually wrote overrides ours: a
    // shard that merely registered the name (make_telemetry et al.) must
    // not clobber the destination with its default 0.
    if (other.gauge_written_[slot]) {
      gauges_[h.index] = other.gauges_[slot];  // last *writer* wins
      gauge_written_[h.index] = true;
    }
  }
  for (std::uint32_t slot = 0; slot < other.histogram_names_.names.size();
       ++slot) {
    if (!other.histogram_names_.live[slot] &&
        other.histograms_[slot].count() == 0) {
      continue;
    }
    const std::string& name = other.histogram_names_.names[slot];
    const HistogramHandle h = histogram(name);
    DAP_INVARIANT(histogram_names_.names[h.index] == name,
                  "Registry::merge_from: histogram handle/name mismatch");
    histograms_[h.index].merge(other.histograms_[slot]);
  }
  for (std::uint32_t slot = 0; slot < other.rate_names_.names.size(); ++slot) {
    if (!other.rate_names_.live[slot] && other.rates_[slot].trials() == 0) {
      continue;
    }
    const RateHandle h = rate(other.rate_names_.names[slot]);
    rates_[h.index].merge(other.rates_[slot]);
  }
}

void Registry::reset() noexcept {
  for (NameTable* table :
       {&counter_names_, &gauge_names_, &histogram_names_, &rate_names_}) {
    std::fill(table->live.begin(), table->live.end(), false);
  }
  std::fill(counters_.begin(), counters_.end(), 0);
  std::fill(gauges_.begin(), gauges_.end(), 0.0);
  std::fill(gauge_written_.begin(), gauge_written_.end(), false);
  for (LatencyHistogram& h : histograms_) h.reset();
  std::fill(rates_.begin(), rates_.end(), common::RateEstimator{});
  uid_ = next_registry_uid();  // holders re-resolve, re-marking live slots
}

Registry& Registry::global() {
  if (tls_registry_override != nullptr) return *tls_registry_override;
  static Registry instance;  // dap-lint: allow(global-state)
  return instance;
}

Registry* Registry::set_thread_override(Registry* reg) noexcept {
  return std::exchange(tls_registry_override, reg);
}

// ------------------------------------------------- parallel shard hooks
//
// Wires common::parallel_for's telemetry bracketing to this layer. Lives
// here (not its own TU) because registry.cc is always pulled into any
// link that touches telemetry — a dedicated TU with only a static
// initializer would be dropped from the static library.

namespace {

struct ObsShard {
  Registry registry;
  Tracer tracer = Tracer::growable(Tracer::global().capacity());
  Registry* prev_registry = nullptr;
  Tracer* prev_tracer = nullptr;
};

/// Shards whose chunk has been merged, ready for the next chunk. Every
/// shard of a job exists until that job's merge, so the pool never holds
/// more shards than the largest job had chunks. It never shrinks either:
/// an idle shard keeps its names, histograms and grown tracer rings until
/// the process exits.
struct ShardPool {
  common::Mutex mu;
  std::vector<std::unique_ptr<ObsShard>> idle DAP_GUARDED_BY(mu);
};

ShardPool& shard_pool() {
  static ShardPool pool;  // dap-lint: allow(global-state)
  return pool;
}

void* shard_create() {
  std::unique_ptr<ObsShard> shard;
  {
    ShardPool& pool = shard_pool();
    const common::LockGuard lock(pool.mu);
    if (!pool.idle.empty()) {
      shard = std::move(pool.idle.back());
      pool.idle.pop_back();
    }
  }
  if (shard == nullptr) shard = std::make_unique<ObsShard>();
  const Tracer& global = Tracer::global();
  if (shard->tracer.capacity() != global.capacity()) {
    shard->tracer = Tracer::growable(global.capacity());
  }
  shard->tracer.enable(global.enabled());
  return shard.release();
}

void shard_activate(void* shard) {
  auto* s = static_cast<ObsShard*>(shard);
  s->prev_registry = Registry::set_thread_override(&s->registry);
  s->prev_tracer = Tracer::set_thread_override(&s->tracer);
}

void shard_deactivate(void* shard) {
  auto* s = static_cast<ObsShard*>(shard);
  Registry::set_thread_override(s->prev_registry);
  Tracer::set_thread_override(s->prev_tracer);
}

void shard_merge(void* shard) {
  auto* s = static_cast<ObsShard*>(shard);
  Registry::global().merge_from(s->registry);
  Tracer::global().append_from(s->tracer);
}

void shard_destroy(void* shard) {
  std::unique_ptr<ObsShard> s(static_cast<ObsShard*>(shard));
  s->registry.reset();
  s->tracer.clear();
  ShardPool& pool = shard_pool();
  const common::LockGuard lock(pool.mu);
  pool.idle.push_back(std::move(s));
}

[[maybe_unused]] const bool kShardHooksInstalled = [] {
  common::set_shard_hooks(common::ShardHooks{
      &shard_create, &shard_activate, &shard_deactivate, &shard_merge,
      &shard_destroy});
  return true;
}();

}  // namespace

}  // namespace dap::obs
