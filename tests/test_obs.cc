// Unit tests for the obs telemetry layer: registry handles, log-bucket
// histogram boundaries and percentile extraction, trace ring-buffer
// wraparound, causal spans, snapshot time series, JSONL/Chrome export
// round-trips, and the allocation-free hot-path guarantee.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "dap/dap.h"
#include "obs/export.h"
#include "obs/registry.h"
#include "obs/scoped_timer.h"
#include "obs/snapshot.h"
#include "obs/tracer.h"
#include "wire/frame.h"

// ------------------------------------------------------------------
// Global allocation counter: every operator new in this binary bumps
// it, which lets the regression tests below prove that registry and
// tracer updates are allocation-free after registration.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// GCC can't see that the replacement operator delete below pairs with the
// malloc inside the replacement operator new, and warns on every new[].
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// The nothrow forms too (std::stable_sort's temporary buffer uses them),
// so every block the deletes below free came from malloc.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace dap::obs {
namespace {

// ---------------------------------------------------------- Registry

TEST(Registry, RegistrationIsIdempotent) {
  Registry reg;
  const CounterHandle a = reg.counter("x");
  const CounterHandle b = reg.counter("x");
  EXPECT_EQ(a.index, b.index);
  reg.add(a, 2);
  reg.add(b, 3);
  EXPECT_EQ(reg.value(a), 5u);
  ASSERT_NE(reg.find_counter("x"), nullptr);
  EXPECT_EQ(*reg.find_counter("x"), 5u);
  EXPECT_EQ(reg.find_counter("y"), nullptr);
}

TEST(Registry, InstrumentTypesHaveSeparateNamespaces) {
  Registry reg;
  const CounterHandle c = reg.counter("same");
  const HistogramHandle h = reg.histogram("same");
  const GaugeHandle g = reg.gauge("same");
  const RateHandle r = reg.rate("same");
  reg.add(c, 7);
  reg.observe(h, 1.5);
  reg.set(g, 2.5);
  reg.mark(r, true);
  EXPECT_EQ(reg.value(c), 7u);
  EXPECT_EQ(reg.value(h).count(), 1u);
  EXPECT_DOUBLE_EQ(reg.value(g), 2.5);
  EXPECT_EQ(reg.value(r).trials(), 1u);
}

TEST(Registry, FindPointersSurviveLaterRegistrations) {
  Registry reg;
  const CounterHandle a = reg.counter("first");
  reg.add(a);
  const std::uint64_t* p = reg.find_counter("first");
  for (int i = 0; i < 100; ++i) {
    reg.counter("other." + std::to_string(i));
    reg.histogram("hist." + std::to_string(i));
  }
  EXPECT_EQ(p, reg.find_counter("first"));  // deque storage: stable
  EXPECT_EQ(*p, 1u);
}

TEST(Registry, ReportMatchesLegacyMetricsFormat) {
  Registry reg;
  reg.add(reg.counter("counter.a"), 3);
  reg.mark(reg.rate("rate.b"), true);
  reg.observe(reg.histogram("stat.c"), 1.0);
  const std::string report = reg.report();
  EXPECT_NE(report.find("counter.a = 3"), std::string::npos);
  EXPECT_NE(report.find("rate.b"), std::string::npos);
  EXPECT_NE(report.find("stat.c mean="), std::string::npos);
  // Counters come first, then rates, then observation moments.
  EXPECT_LT(report.find("counter.a"), report.find("rate.b"));
  EXPECT_LT(report.find("rate.b"), report.find("stat.c"));
}

TEST(Registry, UpdatesAreAllocationFreeAfterRegistration) {
  Registry reg;
  const CounterHandle c = reg.counter("dap.announces_received");
  const HistogramHandle h = reg.histogram("dap.rx_announce_us");
  const GaugeHandle g = reg.gauge("dap.buffers");
  const RateHandle r = reg.rate("dap.auth");
  // Warm up any lazy internals before measuring.
  reg.add(c);
  reg.observe(h, 1.0);
  reg.set(g, 1.0);
  reg.mark(r, true);

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 10000; ++i) {
    reg.add(c);
    reg.observe(h, static_cast<double>(i));
    reg.set(g, static_cast<double>(i));
    reg.mark(r, (i & 1) != 0);
  }
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(before, after) << "registry hot-path updates allocated";
  EXPECT_EQ(reg.value(c), 10001u);
  EXPECT_EQ(reg.value(h).count(), 10001u);
}

TEST(Registry, NameLookupsAreAllocationFree) {
  Registry reg;
  reg.add(reg.counter("medium.broadcasts"), 4);
  const std::uint64_t before = g_allocations.load();
  const std::uint64_t* c = reg.find_counter("medium.broadcasts");
  const std::uint64_t after = g_allocations.load();
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(*c, 4u);
  EXPECT_EQ(before, after) << "transparent lookup should not build strings";
}

TEST(AllocationFree, DapAnnouncePathAfterRoundsFirstOffer) {
  // Algorithm 2's announce path under flood: after a round's first offer
  // has created its m-slot buffer, neither a kept copy (re-MAC into a
  // packed word) nor a discarded one (no re-MAC at all) allocates.
  protocol::DapConfig config;
  config.chain_length = 8;
  protocol::DapSender sender(config, common::bytes_of("seed"));
  protocol::DapReceiver receiver(config, sender.chain().commitment(),
                                 common::bytes_of("k-recv"),
                                 sim::LooseClock(0, 0), common::Rng(5));
  const wire::MacAnnounce authentic =
      sender.announce(2, common::bytes_of("reading"));
  wire::MacAnnounce forged = authentic;
  forged.mac[0] ^= 0xff;
  const sim::SimTime now =
      config.schedule.interval_start(2) + config.schedule.duration() / 4;
  receiver.receive(authentic, now);  // creates the round's buffer

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    receiver.receive(i % 2 == 0 ? forged : authentic, now);
  }
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(before, after) << "announce path allocated";
  const protocol::DapStats& stats = receiver.stats();
  EXPECT_EQ(stats.records_offered, 1001u);
  EXPECT_GT(stats.records_stored, config.buffers);  // kept offers ...
  EXPECT_LT(stats.records_stored, 100u);            // ... and discarded
  EXPECT_EQ(receiver.buffered_records(2), config.buffers);
}

TEST(AllocationFree, AnnounceFrameDeframeAndReceive) {
  // The flood ingress path end to end: a framed 25-byte announce is
  // CRC-checked, decoded into a packet whose MAC lives inline, offered to
  // the receiver and destroyed. Once the round's buffer exists, none of
  // it allocates, for a kept copy or a discarded one.
  protocol::DapConfig config;
  config.chain_length = 8;
  protocol::DapSender sender(config, common::bytes_of("seed"));
  protocol::DapReceiver receiver(config, sender.chain().commitment(),
                                 common::bytes_of("k-recv"),
                                 sim::LooseClock(0, 0), common::Rng(5));
  const wire::MacAnnounce authentic =
      sender.announce(2, common::bytes_of("reading"));
  wire::MacAnnounce forged = authentic;
  forged.mac[0] ^= 0xff;
  const common::Bytes frames[] = {wire::frame(wire::Packet{forged}),
                                  wire::frame(wire::Packet{authentic})};
  ASSERT_EQ(frames[1].size(), 25u);
  const sim::SimTime now =
      config.schedule.interval_start(2) + config.schedule.duration() / 4;
  receiver.receive(authentic, now);  // creates the round's buffer

  std::uint64_t received = 0;
  const std::uint64_t before = g_allocations.load();
  for (std::size_t i = 0; i < 1000; ++i) {
    const std::optional<wire::Packet> packet = wire::deframe(frames[i % 2]);
    if (!packet.has_value()) continue;
    if (const auto* announce = std::get_if<wire::MacAnnounce>(&*packet)) {
      receiver.receive(*announce, now);
      ++received;
    }
  }
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(before, after) << "announce ingress allocated";
  EXPECT_EQ(received, 1000u);
  EXPECT_EQ(receiver.stats().records_offered, 1001u);
  EXPECT_EQ(receiver.buffered_records(2), config.buffers);
}

// -------------------------------------------------- LatencyHistogram

TEST(LatencyHistogram, BucketBoundariesCoverOctavesLinearly) {
  // Bucket 0 is the underflow bucket for v <= 0 and denormal-small v.
  EXPECT_EQ(LatencyHistogram::bucket_index(0.0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_index(-5.0), 0u);

  // 1.0 = 2^0: first sub-bucket of the exponent-0 octave.
  const std::size_t at_one = LatencyHistogram::bucket_index(1.0);
  EXPECT_DOUBLE_EQ(LatencyHistogram::bucket_lower(at_one), 1.0);
  // The octave [1, 2) splits into 8 linear sub-buckets of width 0.125.
  EXPECT_EQ(LatencyHistogram::bucket_index(1.124), at_one);
  EXPECT_EQ(LatencyHistogram::bucket_index(1.125), at_one + 1);
  EXPECT_EQ(LatencyHistogram::bucket_index(1.999), at_one + 7);
  EXPECT_EQ(LatencyHistogram::bucket_index(2.0), at_one + 8);

  // Every in-range bucket's edges bracket its members.
  for (const double v : {0.001, 0.5, 1.0, 3.7, 1024.0, 1e9}) {
    const std::size_t i = LatencyHistogram::bucket_index(v);
    EXPECT_GE(v, LatencyHistogram::bucket_lower(i)) << v;
    EXPECT_LT(v, LatencyHistogram::bucket_upper(i)) << v;
  }

  // Bucket widths are at most 1/8 of the value's magnitude.
  for (const double v : {2.5, 77.0, 4096.0}) {
    const std::size_t i = LatencyHistogram::bucket_index(v);
    const double width =
        LatencyHistogram::bucket_upper(i) - LatencyHistogram::bucket_lower(i);
    EXPECT_LE(width, v / 8.0 + 1e-12) << v;
  }
}

TEST(LatencyHistogram, PercentilesOfUniformDistribution) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.add(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  // Log-bucket estimates carry <= 12.5% relative error by construction;
  // allow a slightly wider margin for the rank convention.
  EXPECT_NEAR(h.p50(), 500.0, 500.0 * 0.14);
  EXPECT_NEAR(h.p90(), 900.0, 900.0 * 0.14);
  EXPECT_NEAR(h.p99(), 990.0, 990.0 * 0.14);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
}

TEST(LatencyHistogram, PercentilesOfBimodalDistribution) {
  // 90% fast path at ~10us, 10% slow path at ~1000us: p50 must sit in
  // the fast mode and p99 in the slow mode — the shape that motivates
  // histograms over means for DoS work.
  LatencyHistogram h;
  for (int i = 0; i < 900; ++i) h.add(10.0);
  for (int i = 0; i < 100; ++i) h.add(1000.0);
  EXPECT_NEAR(h.p50(), 10.0, 10.0 * 0.14);
  EXPECT_NEAR(h.p99(), 1000.0, 1000.0 * 0.14);
  EXPECT_NEAR(h.moments().mean(), 109.0, 1e-9);
}

TEST(LatencyHistogram, MomentsMatchWelford) {
  LatencyHistogram h;
  common::RunningStats reference;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    h.add(v);
    reference.add(v);
  }
  EXPECT_DOUBLE_EQ(h.moments().mean(), reference.mean());
  EXPECT_DOUBLE_EQ(h.moments().stddev(), reference.stddev());
  EXPECT_DOUBLE_EQ(h.sum(), 40.0);
}

TEST(LatencyHistogram, WeightedAddMatchesRepeatedAdds) {
  // add(v, w) must equal w calls of add(v): a SampledTimer sample stands
  // for every call it skipped. Dyadic values keep the repeated sums exact.
  LatencyHistogram weighted;
  LatencyHistogram repeated;
  const std::vector<std::pair<double, std::uint64_t>> stream = {
      {3.25, 64}, {0.75, 1}, {12.5, 64}, {1.5, 3}, {0.0, 64}, {3.25, 0},
      {1024.0, 64}};
  for (const auto& [value, weight] : stream) {
    weighted.add(value, weight);
    for (std::uint64_t i = 0; i < weight; ++i) repeated.add(value);
  }
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    EXPECT_EQ(weighted.bucket_count(i), repeated.bucket_count(i)) << i;
  }
  EXPECT_EQ(weighted.count(), repeated.count());
  EXPECT_EQ(weighted.sum(), repeated.sum());
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(weighted.quantile(q), repeated.quantile(q)) << q;
  }
  EXPECT_EQ(weighted.min(), repeated.min());
  EXPECT_EQ(weighted.max(), repeated.max());
  EXPECT_NEAR(weighted.moments().mean(), repeated.moments().mean(), 1e-12);
  EXPECT_NEAR(weighted.moments().stddev(), repeated.moments().stddev(),
              1e-12);
}

TEST(LatencyHistogram, EmptyHistogramIsSane) {
  const LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.p50(), 0.0);
  EXPECT_DOUBLE_EQ(h.p99(), 0.0);
}

// ------------------------------------------------------- ScopedTimer

TEST(ScopedTimer, RecordsElapsedTime) {
  Registry reg;
  const HistogramHandle h = reg.histogram("timed");
  {
    const ScopedTimer timer(reg, h);
    // A few spins so the elapsed time is strictly positive on coarse
    // clocks too.
    volatile double sink = 0;
    for (int i = 0; i < 1000; ++i) sink = sink + static_cast<double>(i);
  }
  EXPECT_EQ(reg.value(h).count(), 1u);
  EXPECT_GE(reg.value(h).max(), 0.0);
}

TEST(ScopedTimer, DisabledTimingSkipsRecording) {
  Registry reg;
  const HistogramHandle h = reg.histogram("timed");
  set_timing_enabled(false);
  {
    const ScopedTimer timer(reg, h);
  }
  set_timing_enabled(true);
  EXPECT_EQ(reg.value(h).count(), 0u);
}

// ------------------------------------------------------ SampledTimer

// One timed site, as the library writes it: per-thread sampling state
// beside the timer.
void sampled_site(Registry& reg, HistogramHandle h) {
  thread_local SampleSite site;
  const SampledTimer timer(reg, h, site);
}

TEST(SampledTimer, FirstCallThenOnePerBlockWeightedByItsSize) {
  static constexpr std::uint64_t kPeriod = SampledTimer::kPeriod;
  Registry reg;
  const HistogramHandle h = reg.histogram("sampled");
  // A fresh thread starts its own state, so its first call is sampled,
  // standing for itself alone.
  std::thread([&reg, h] {
    sampled_site(reg, h);
    EXPECT_EQ(reg.value(h).count(), 1u);
    for (std::uint64_t call = 2; call <= 40 * kPeriod + 1; ++call) {
      const std::uint64_t before = reg.value(h).count();
      sampled_site(reg, h);
      const std::uint64_t after = reg.value(h).count();
      ASSERT_TRUE(after == before || after == before + kPeriod) << call;
      if ((call - 1) % kPeriod == 0) {
        // Exactly one sample in each block of kPeriod calls after the
        // first, each standing for the whole block.
        ASSERT_EQ(after, call) << "after call " << call;
      }
    }
  }).join();
  // Another thread keeps its own state: its first call is sampled too.
  const std::uint64_t before = reg.value(h).count();
  std::thread([&reg, h] { sampled_site(reg, h); }).join();
  EXPECT_EQ(reg.value(h).count(), before + 1);
}

TEST(SampledTimer, SamplesEveryPhaseOfAPeriodicStream) {
  // 80 announce copies per interval share a factor of 16 with 64: a
  // fixed stride would only ever time 5 of the 80 copies.
  constexpr std::uint64_t kStreamPeriod = 80;
  Registry reg;
  const HistogramHandle h = reg.histogram("sampled");
  SampleSite site;
  std::vector<int> sampled(kStreamPeriod, 0);
  for (std::uint64_t call = 0; call < 400 * kStreamPeriod; ++call) {
    const std::uint64_t before = reg.value(h).count();
    { const SampledTimer timer(reg, h, site); }
    if (reg.value(h).count() != before) ++sampled[call % kStreamPeriod];
  }
  // 500 samples over 80 phases: each phase is hit ~6 times.
  for (std::uint64_t phase = 0; phase < kStreamPeriod; ++phase) {
    EXPECT_GT(sampled[phase], 0) << "phase " << phase;
    EXPECT_LT(sampled[phase], 20) << "phase " << phase;
  }
}

TEST(SampledTimer, BlockIndexDoesNotWrapAfter2To32Samples) {
  static constexpr std::uint64_t kPeriod = SampledTimer::kPeriod;
  Registry reg;
  const HistogramHandle h = reg.histogram("sampled");
  // A site that has taken 2^32 - 1 samples and is due for the next one
  // at the end of its block. Every later sample still stands for a whole
  // block, and the countdown still finds one call in each block.
  SampleSite site;
  site.block = std::numeric_limits<std::uint32_t>::max();
  site.offset = SampledTimer::kPeriod - 1;
  for (std::uint64_t call = 1; call <= 8 * kPeriod + 1; ++call) {
    const std::uint64_t before = reg.value(h).count();
    { const SampledTimer timer(reg, h, site); }
    const std::uint64_t after = reg.value(h).count();
    ASSERT_TRUE(after == before || after == before + kPeriod) << call;
    if ((call - 1) % kPeriod == 0) {
      ASSERT_EQ(after, call - 1 + kPeriod) << "after call " << call;
    }
  }
}

TEST(SampledTimer, DisabledTimingRecordsNothing) {
  Registry reg;
  const HistogramHandle h = reg.histogram("sampled");
  SampleSite site;
  set_timing_enabled(false);
  for (std::uint32_t i = 0; i < 3 * SampledTimer::kPeriod; ++i) {
    const SampledTimer timer(reg, h, site);
  }
  set_timing_enabled(true);
  EXPECT_EQ(reg.value(h).count(), 0u);
  EXPECT_EQ(reg.value(h).sum(), 0.0);
}

// ------------------------------------------------------------ Tracer

TEST(Tracer, RingBufferWrapsAround) {
  Tracer tracer(4);
  tracer.enable(true);
  for (std::uint32_t i = 0; i < 10; ++i) {
    tracer.record(TraceKind::kAnnounce, i * 100, i);
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.total_recorded(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first, holding the tail of the run: ids 6, 7, 8, 9.
  for (std::uint32_t k = 0; k < 4; ++k) {
    EXPECT_EQ(events[k].id, 6 + k);
    EXPECT_EQ(events[k].t, (6 + k) * 100u);
  }
}

TEST(Tracer, DisabledTracerRecordsNothing) {
  Tracer tracer(8);
  tracer.record(TraceKind::kAnnounce, 1);
  EXPECT_EQ(tracer.size(), 0u);
  tracer.enable(true);
  tracer.record(TraceKind::kAnnounce, 1);
  EXPECT_EQ(tracer.size(), 1u);
}

TEST(Tracer, RecordingIsAllocationFree) {
  Tracer tracer(128);
  tracer.enable(true);
  tracer.record(TraceKind::kAnnounce, 0);
  const std::uint64_t before = g_allocations.load();
  for (std::uint32_t i = 0; i < 1000; ++i) {
    tracer.record(TraceKind::kAuthSuccess, i, i, 0.5, 0.5);
  }
  EXPECT_EQ(before, g_allocations.load());
}

// Minimal JSON value scanner for the round-trip tests.
std::string json_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto at = line.find(needle);
  EXPECT_NE(at, std::string::npos) << key << " missing in " << line;
  if (at == std::string::npos) return {};
  auto start = at + needle.size();
  auto end = line.find_first_of(",}", start);
  std::string value = line.substr(start, end - start);
  if (!value.empty() && value.front() == '"') {
    value = value.substr(1, value.size() - 2);
  }
  return value;
}

TEST(Tracer, JsonlExportRoundTrips) {
  Tracer tracer(16);
  tracer.enable(true);
  tracer.record(TraceKind::kAnnounce, 500000, 1);
  tracer.record(TraceKind::kAuthSuccess, 1500000, 1, 0.25, 0.75);
  tracer.record(TraceKind::kEssStep, 42, 42, 0.5, 0.125);

  std::ostringstream out;
  tracer.export_jsonl(out);
  std::istringstream in(out.str());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);

  const auto original = tracer.snapshot();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(json_field(lines[i], "kind"),
              trace_kind_name(original[i].kind));
    EXPECT_EQ(json_field(lines[i], "id"), std::to_string(original[i].id));
    EXPECT_EQ(json_field(lines[i], "t"), std::to_string(original[i].t));
    EXPECT_DOUBLE_EQ(std::stod(json_field(lines[i], "a")), original[i].a);
    EXPECT_DOUBLE_EQ(std::stod(json_field(lines[i], "b")), original[i].b);
  }
}

TEST(Tracer, ChromeTraceExportIsWellFormed) {
  Tracer tracer(16);
  tracer.enable(true);
  tracer.record(TraceKind::kAnnounce, 500000, 1);
  tracer.record(TraceKind::kAuthFail, 1500000, 1);
  std::ostringstream out;
  tracer.export_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"announce\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"auth_fail\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":500000"), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

// ------------------------------------------------------------- Spans

SpanEvent make_span(std::uint64_t uid, std::uint64_t parent, SpanKind kind,
                    std::uint64_t t_begin, std::uint64_t t_end,
                    std::uint32_t node, SpanTag tag = SpanTag::kNone) {
  SpanEvent s;
  s.uid = uid;
  s.trace = 77;
  s.parent = parent;
  s.t_begin = t_begin;
  s.t_end = t_end;
  s.node = node;
  s.id = 3;
  s.kind = kind;
  s.tag = tag;
  return s;
}

TEST(TracerSpans, RecordAndSnapshotOldestFirst) {
  Tracer tracer(8);
  tracer.enable(true);
  tracer.record_span(
      make_span(10, 0, SpanKind::kAnnounceSend, 100, 100, 0));
  tracer.record_span(make_span(11, 10, SpanKind::kRelayHop, 100, 400, 1));
  tracer.record_span(make_span(12, 11, SpanKind::kVerify, 400, 900, 2,
                               SpanTag::kAuthOk));
  EXPECT_EQ(tracer.span_size(), 3u);
  EXPECT_EQ(tracer.spans_total_recorded(), 3u);
  EXPECT_EQ(tracer.spans_dropped(), 0u);
  const auto spans = tracer.span_snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].uid, 10u);
  EXPECT_EQ(spans[2].parent, 11u);
  EXPECT_EQ(spans[2].tag, SpanTag::kAuthOk);
}

TEST(TracerSpans, RingDropAccountingMatchesEventRing) {
  Tracer tracer(4);
  tracer.enable(true);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    tracer.record_span(
        make_span(i, 0, SpanKind::kRelayHop, i * 10, i * 10 + 5, 1));
  }
  EXPECT_EQ(tracer.span_size(), 4u);
  EXPECT_EQ(tracer.spans_total_recorded(), 10u);
  EXPECT_EQ(tracer.spans_dropped(), 6u);
  // Oldest-first tail of the run: uids 7..10.
  EXPECT_EQ(tracer.span_snapshot().front().uid, 7u);
}

TEST(TracerSpans, SetCapacityOnlyWhileEmpty) {
  Tracer tracer(4);
  tracer.enable(true);
  tracer.set_capacity(64);  // empty: fine
  EXPECT_EQ(tracer.capacity(), 64u);
  EXPECT_EQ(tracer.span_capacity(), 64u);
  tracer.record(TraceKind::kAnnounce, 1);
  EXPECT_THROW(tracer.set_capacity(128), std::logic_error);
  tracer.clear();
  tracer.set_capacity(128);  // cleared: fine again
  EXPECT_EQ(tracer.capacity(), 128u);
}

TEST(TracerSpans, AppendFromPreservesParentLinks) {
  Tracer shard(16);
  shard.enable(true);
  shard.record(TraceKind::kAnnounce, 100, 3);
  shard.record_span(make_span(20, 0, SpanKind::kAnnounceSend, 100, 100, 0));
  shard.record_span(make_span(21, 20, SpanKind::kVerify, 100, 300, 2,
                              SpanTag::kNoRecord));

  Tracer merged(16);
  merged.enable(true);
  merged.append_from(shard);
  EXPECT_EQ(merged.total_recorded(), 1u);
  ASSERT_EQ(merged.span_size(), 2u);
  const auto spans = merged.span_snapshot();
  EXPECT_EQ(spans[0].uid, 20u);
  EXPECT_EQ(spans[1].parent, 20u);  // caller-assigned uids survive merges
  EXPECT_EQ(spans[1].tag, SpanTag::kNoRecord);
}

TEST(TracerSpans, JsonlExportEmitsSpanLines) {
  Tracer tracer(8);
  tracer.enable(true);
  tracer.record_span(make_span(30, 0, SpanKind::kAnnounceSend, 10, 10, 0));
  tracer.record_span(make_span(31, 30, SpanKind::kVerify, 10, 90, 5,
                               SpanTag::kWeakAuthFail));
  std::ostringstream out;
  tracer.export_jsonl(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"span\":\"announce_send\""), std::string::npos);
  EXPECT_NE(text.find("\"span\":\"verify\""), std::string::npos);
  EXPECT_NE(text.find("\"parent\":30"), std::string::npos);
  EXPECT_NE(text.find("\"tag\":\"weak_auth_fail\""), std::string::npos);
}

TEST(TracerSpans, ChromeTraceLinksSpansWithFlowArrows) {
  Tracer tracer(8);
  tracer.enable(true);
  tracer.record_span(make_span(40, 0, SpanKind::kAnnounceSend, 100, 100, 0));
  tracer.record_span(make_span(41, 40, SpanKind::kRelayHop, 100, 400, 7));
  std::ostringstream out;
  tracer.export_chrome_trace(out);
  const std::string json = out.str();
  // Spans render as "X" complete events on per-node lanes...
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":7"), std::string::npos);
  // ...and the parent->child edge as a flow start/finish pair keyed by
  // the child's uid.
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":41"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

// ------------------------------------------------------- Snapshotter

TEST(Snapshotter, SamplesOnSimTimeCadenceBoundaries) {
  Registry reg;
  const CounterHandle c = reg.counter("fleet.announces_sent");
  Snapshotter snap("topology:test", 1000);
  EXPECT_FALSE(snap.maybe_sample(reg, 999));   // before first boundary
  reg.add(c, 5);
  EXPECT_TRUE(snap.maybe_sample(reg, 1000));   // on the boundary
  EXPECT_FALSE(snap.maybe_sample(reg, 1500));  // same cadence window
  EXPECT_TRUE(snap.maybe_sample(reg, 3700));   // skipped boundaries: one sample
  EXPECT_FALSE(snap.maybe_sample(reg, 3900));  // next due at 4000
  EXPECT_EQ(snap.samples(), 2u);
}

TEST(Snapshotter, StreamCarriesHeaderAndOrderedSamples) {
  Registry reg;
  reg.add(reg.counter("fleet.announces_sent"), 2);
  reg.set(reg.gauge("fleet.members"), 64.0);
  reg.mark(reg.rate("fleet.auth"), true);
  Snapshotter snap("topology:test", 500);
  snap.sample(reg, 500);
  reg.add(reg.counter("fleet.announces_sent"), 3);
  snap.sample(reg, 1000);

  std::istringstream in(snap.stream());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);  // header + 2 samples
  EXPECT_NE(lines[0].find("\"schema\":\"dap.snapshots.v1\""),
            std::string::npos);
  EXPECT_NE(lines[0].find("\"cadence_us\":500"), std::string::npos);
  EXPECT_NE(lines[1].find("\"seq\":0"), std::string::npos);
  EXPECT_NE(lines[1].find("\"t_us\":500"), std::string::npos);
  EXPECT_NE(lines[1].find("\"fleet.announces_sent\":2"), std::string::npos);
  EXPECT_NE(lines[2].find("\"seq\":1"), std::string::npos);
  EXPECT_NE(lines[2].find("\"fleet.announces_sent\":5"), std::string::npos);
  EXPECT_NE(lines[2].find("\"fleet.auth\""), std::string::npos);
}

TEST(Snapshotter, HistogramFilterExcludesWallClockInstruments) {
  Registry reg;
  reg.observe(reg.histogram("fleet.hop_latency_us"), 250.0);
  reg.observe(reg.histogram("crypto.hmac_us"), 3.0);
  Snapshotter snap("topology:test", 100, [](std::string_view name) {
    return name.find("hop_latency") != std::string_view::npos;
  });
  snap.sample(reg, 100);
  const std::string stream = snap.stream();
  EXPECT_NE(stream.find("fleet.hop_latency_us"), std::string::npos);
  EXPECT_EQ(stream.find("crypto.hmac_us"), std::string::npos);
}

TEST(Snapshotter, IdenticalRegistriesYieldIdenticalStreams) {
  // The byte-identity contract across DAP_THREADS reduces to: equal
  // registry state sampled at equal sim times produces equal bytes.
  auto build = [] {
    Registry reg;
    reg.add(reg.counter("fleet.announces_sent"), 41);
    reg.observe(reg.histogram("fleet.hop_latency_us"), 125.0);
    Snapshotter snap("topology:test", 250);
    snap.maybe_sample(reg, 250);
    snap.maybe_sample(reg, 500);
    return snap.stream();
  };
  EXPECT_EQ(build(), build());
}

// ------------------------------------------------------------ Export

TEST(Export, MetricsJsonContainsEveryInstrument) {
  Registry reg;
  reg.add(reg.counter("dap.announces_received"), 12);
  reg.set(reg.gauge("dap.buffers"), 6.0);
  reg.mark(reg.rate("dap.auth"), true);
  auto h = reg.histogram("dap.rx_announce_us");
  for (int i = 1; i <= 100; ++i) reg.observe(h, static_cast<double>(i));

  const std::string json = metrics_json(reg, 1.5);
  EXPECT_NE(json.find("\"schema\": \"dap.metrics.v2\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_seconds\": 1.5"), std::string::npos);
  EXPECT_NE(json.find("\"dap.announces_received\": 12"), std::string::npos);
  EXPECT_NE(json.find("\"dap.buffers\": 6"), std::string::npos);
  EXPECT_NE(json.find("\"trials\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 100"), std::string::npos);
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\": ["), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(Export, MetricsJsonBucketsRecoverTheDistribution) {
  Registry reg;
  const HistogramHandle h = reg.histogram("fleet.hop_latency_us");
  reg.observe(h, 10.0);
  reg.observe(h, 10.0);
  reg.observe(h, 1000.0);
  const std::string json = metrics_json(reg, -1.0);

  // The two observed values land in their exact bucket triples:
  // [lower, upper, count] with lower <= v < upper.
  const auto lo10 = LatencyHistogram::bucket_index(10.0);
  const auto lo1000 = LatencyHistogram::bucket_index(1000.0);
  std::ostringstream expect10;
  expect10 << "[" << detail::json_number(LatencyHistogram::bucket_lower(lo10))
           << ", " << detail::json_number(LatencyHistogram::bucket_upper(lo10))
           << ", 2]";
  std::ostringstream expect1000;
  expect1000 << "["
             << detail::json_number(LatencyHistogram::bucket_lower(lo1000))
             << ", "
             << detail::json_number(LatencyHistogram::bucket_upper(lo1000))
             << ", 1]";
  EXPECT_NE(json.find(expect10.str()), std::string::npos) << json;
  EXPECT_NE(json.find(expect1000.str()), std::string::npos) << json;
  // Only non-empty buckets export: exactly two triples.
  EXPECT_NE(json.find("\"buckets\": [" + expect10.str() + ", " +
                      expect1000.str() + "]"),
            std::string::npos)
      << json;
}

TEST(Export, EmptyRegistryStillValid) {
  const Registry reg;
  const std::string json = metrics_json(reg);
  EXPECT_NE(json.find("\"counters\": {}"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\": {}"), std::string::npos);
  EXPECT_EQ(json.find("wall_seconds"), std::string::npos);
}

}  // namespace
}  // namespace dap::obs
