// End-to-end DAP benchmark driver.
//
// Runs one closed-loop workload through the protocol stack's public entry
// points only: wire::deframe, DapReceiver::{receive, enqueue,
// drain_pending_batch}, FleetSim::run with a timing DrainParticipant, and
// analysis::attack_success_sweep. The driver hands over the next frame,
// scenario or grid cell only when the previous call has returned.
//
// A run is a sequence of segments. Each segment builds fresh inputs from
// its own seed (timed as set-up), then runs a fixed amount of work (timed).
// Segments repeat until the timed phases add up to --seconds, so every
// workload reports work per second at a fixed per-segment input size. With
// --trace the driver also records a span around every call it makes into a
// layer (even segments only; odd segments stay untraced as the overhead
// reference) and runs short fixed-work passes with program timers off and
// with the flight recorder on.
//
// Output on stdout: one JSON line per segment (times, work, host speed
// probe, step latencies), then one summary line (outcome counters, digest,
// peak RSS, traced-layer totals). bench/e2e/run.py turns them into metrics
// and checks correctness.
//
//   dap_e2e --workload rx_flood --seed 7 --seconds 10 [--trace]
//           [--threads N] [--units N] [--out DIR]

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "analysis/montecarlo.h"
#include "common/bytes.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "dap/dap.h"
#include "fleet/fleet.h"
#include "fleet/scenario.h"
#include "obs/registry.h"
#include "obs/scoped_timer.h"
#include "obs/tracer.h"
#include "sim/adversary.h"
#include "sim/clock_model.h"
#include "wire/frame.h"

namespace {

using Clock = std::chrono::steady_clock;
using dap::common::subseed;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// ---------------------------------------------------------------- spans

/// Layers the driver can see from outside: one per public call it makes.
/// bench.step is the driver's own per-step root (rx workloads only); its
/// self time is dispatch overhead, not program work.
enum class Layer : std::uint8_t {
  kStep,
  kDeframe,
  kReceive,
  kEnqueue,
  kDrain,
  kFleetRun,
  kFleetDrain,
  kSweep,
};
constexpr std::size_t kLayerCount = 8;
constexpr std::array<std::string_view, kLayerCount> kLayerNames = {
    "bench.step",  "wire.deframe", "dap.receive", "dap.enqueue",
    "dap.drain",   "fleet.run",    "fleet.drain", "analysis.sweep"};

/// Per-layer call counts and self times for every traced call, plus full
/// spans for a deterministic sample, kept in a bounded buffer.
class SpanLedger {
 public:
  static constexpr std::size_t kMaxKept = std::size_t{1} << 18;

  struct Totals {
    std::uint64_t calls = 0;
    std::int64_t self_ns = 0;
  };
  struct Kept {
    Layer layer = Layer::kStep;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = root
    std::uint64_t trace = 0;
    std::uint32_t lane = 0;
  };

  explicit SpanLedger(Clock::time_point origin) : origin_(origin) {}

  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  void begin(Layer layer, std::uint64_t trace, std::uint32_t lane,
             bool sampled) {
    if (!enabled_) return;
    Open open;
    open.layer = layer;
    open.trace = trace;
    open.lane = lane;
    open.id = sampled ? ++next_id_ : 0;
    open.start_ns = now_ns();
    open_.push_back(open);
  }

  void end() {
    if (!enabled_ || open_.empty()) return;
    const std::int64_t end_ns = now_ns();
    const Open open = open_.back();
    open_.pop_back();
    const std::int64_t duration = end_ns - open.start_ns;
    Totals& totals = totals_[static_cast<std::size_t>(open.layer)];
    ++totals.calls;
    totals.self_ns += duration - open.child_ns;
    std::uint64_t parent = 0;
    if (!open_.empty()) {
      open_.back().child_ns += duration;
      parent = open_.back().id;
    }
    if (open.id == 0) return;
    if (kept_.size() >= kMaxKept) {
      ++dropped_;
      return;
    }
    kept_.push_back(Kept{open.layer, open.start_ns, end_ns, open.id, parent,
                         open.trace, open.lane});
  }

  [[nodiscard]] const std::array<Totals, kLayerCount>& totals() const {
    return totals_;
  }
  [[nodiscard]] const std::vector<Kept>& kept() const { return kept_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  struct Open {
    Layer layer = Layer::kStep;
    std::int64_t start_ns = 0;
    std::int64_t child_ns = 0;
    std::uint64_t trace = 0;
    std::uint32_t lane = 0;
    std::uint64_t id = 0;  // 0 = not sampled
  };

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_;
  bool enabled_ = false;
  std::array<Totals, kLayerCount> totals_{};
  std::vector<Open> open_;
  std::vector<Kept> kept_;
  std::uint64_t next_id_ = 0;
  std::uint64_t dropped_ = 0;
};

class Span {
 public:
  Span(SpanLedger& ledger, Layer layer, std::uint64_t trace = 0,
       std::uint32_t lane = 0, bool sampled = false)
      : ledger_(ledger.enabled() ? &ledger : nullptr) {
    if (ledger_ != nullptr) ledger_->begin(layer, trace, lane, sampled);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (ledger_ != nullptr) ledger_->end();
  }

 private:
  SpanLedger* ledger_;
};

/// One in 64 intervals (or calls) keeps its full spans.
constexpr bool sampled(std::uint64_t index) { return index % 64 == 0; }

// ------------------------------------------------------- shared plumbing

/// Outcome counters for the correctness checks (every segment, every
/// mode) and, for fleet_* and mc_sweep, the determinism digest.
struct Outcome {
  std::map<std::string, std::uint64_t> counts;
  std::uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a offset basis

  void mix(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      digest ^= (v >> (8 * b)) & 0xffU;
      digest *= 0x100000001b3ULL;
    }
  }
};

/// What a segment's timed phase writes to besides the outcome.
struct Context {
  SpanLedger& spans;
  std::vector<float>* steps = nullptr;  // step latencies (us); null if traced
  std::uint64_t segment = 0;
  /// Per-layer counters kept only for traced segments.
  std::map<std::string, std::uint64_t>* layer_counts = nullptr;

  void record_step(Clock::time_point t0) const {
    if (steps != nullptr) {
      steps->push_back(static_cast<float>(seconds_since(t0) * 1e6));
    }
  }
  void count(const std::string& name, std::uint64_t v) const {
    if (layer_counts != nullptr) (*layer_counts)[name] += v;
  }
  void peak(const std::string& name, std::uint64_t v) const {
    if (layer_counts != nullptr) {
      auto& slot = (*layer_counts)[name];
      slot = std::max(slot, v);
    }
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the segment's inputs and objects from `seed`. `small` selects
  /// the short fixed-work unit of the overhead passes.
  virtual void setup(std::uint64_t seed, bool small) = 0;
  /// Runs the segment's closed loop; returns work items completed.
  virtual std::uint64_t run(Context& ctx) = 0;
};

// ------------------------------------------------------------ rx_*

struct RxShape {
  std::uint32_t receivers = 4;  // per segment (1 in the small unit)
  std::uint32_t intervals = 400;
  std::uint32_t messages = 1;          // distinct messages per interval
  std::uint32_t copies = 4;            // authentic copies per message
  std::uint32_t forged_announces = 76;
  std::uint32_t forged_reveals = 0;
  double reveal_loss = 0.0;  // per (receiver, genuine reveal)
};

bool forged_payload(dap::common::ByteView message) {
  static constexpr std::string_view kTag = "FORGED";
  return message.size() >= kTag.size() &&
         std::equal(kTag.begin(), kTag.end(), message.begin());
}

/// One pre-generated, framed broadcast stream replayed through
/// deframe -> receive / enqueue -> drain_pending_batch to each receiver.
/// Step s carries the announces of interval s and the reveals of s - 1.
class RxWorkload final : public Workload {
 public:
  RxWorkload(RxShape shape, Outcome& outcome)
      : shape_(shape), outcome_(outcome) {}

  void setup(std::uint64_t seed, bool small) override {
    using namespace dap;
    dap::common::Rng rng(seed);
    config_ = protocol::DapConfig{};
    config_.chain_length = shape_.intervals + 1;
    config_.buffers = 4;
    protocol::DapSender sender(config_, rng.bytes(16));
    sim::FloodingForger forger(config_.sender_id, config_.mac_size,
                               rng.fork(1));
    sim::KeyGuessForger key_forger(config_.sender_id, config_.key_size,
                                   rng.fork(2));
    dap::common::Rng shuffle = rng.fork(3);

    arena_.clear();
    frames_.clear();
    step_begin_.assign(1, 0);
    const auto push = [this](const wire::Packet& packet, std::int32_t k) {
      const dap::common::Bytes framed = wire::frame(packet);
      frames_.push_back(Frame{arena_.size(), framed.size(),
                              std::holds_alternative<wire::MessageReveal>(
                                  packet),
                              k});
      arena_.insert(arena_.end(), framed.begin(), framed.end());
    };
    std::vector<std::pair<wire::Packet, std::int32_t>> batch;
    const auto flush_shuffled = [&] {
      for (std::size_t i = batch.size(); i > 1; --i) {
        const auto j = static_cast<std::size_t>(shuffle.uniform(0, i - 1));
        std::swap(batch[i - 1], batch[j]);
      }
      for (const auto& [packet, k] : batch) push(packet, k);
      batch.clear();
    };
    for (std::uint32_t s = 1; s <= shape_.intervals + 1; ++s) {
      if (s <= shape_.intervals) {
        for (std::uint32_t k = 0; k < shape_.messages; ++k) {
          const wire::MacAnnounce announce = sender.announce(
              s, dap::common::bytes_of("m" + std::to_string(s) + "." +
                                       std::to_string(k)));
          for (std::uint32_t c = 0; c < shape_.copies; ++c) {
            batch.emplace_back(announce, -1);
          }
        }
        for (std::uint32_t f = 0; f < shape_.forged_announces; ++f) {
          batch.emplace_back(forger.forge(s), -1);
        }
        flush_shuffled();
      }
      if (s >= 2) {
        for (std::uint32_t k = 0; k < shape_.messages; ++k) {
          batch.emplace_back(sender.reveal(s - 1, k),
                             static_cast<std::int32_t>(k));
        }
        for (std::uint32_t f = 0; f < shape_.forged_reveals; ++f) {
          batch.emplace_back(key_forger.forge_reveal(
                                 s - 1, dap::common::bytes_of("FORGED")),
                             -1);
        }
        flush_shuffled();
      }
      step_begin_.push_back(frames_.size());
    }

    const std::uint32_t receivers = small ? 1 : shape_.receivers;
    receivers_.clear();
    delivered_.assign(receivers, {});
    for (std::uint32_t r = 0; r < receivers; ++r) {
      receivers_.push_back(std::make_unique<protocol::DapReceiver>(
          config_, sender.chain().commitment(), rng.bytes(16),
          sim::LooseClock(0, 0), rng.fork(100 + r)));
      auto& mask = delivered_[r];
      mask.resize(std::size_t{shape_.intervals} * shape_.messages + 1);
      for (auto& bit : mask) {
        bit = rng.next_double() >= shape_.reveal_loss ? 1 : 0;
      }
    }
  }

  std::uint64_t run(Context& ctx) override {
    using namespace dap;
    // Plain locals in the loop; the named outcome counters are updated
    // once per segment so they add nothing to dispatch time.
    std::uint64_t frames = 0;
    std::uint64_t deframe_failures = 0;
    std::uint64_t genuine_delivered = 0;
    std::uint64_t genuine_authenticated = 0;
    std::uint64_t forged_accepted = 0;
    const auto receivers = static_cast<std::uint32_t>(receivers_.size());
    for (std::uint32_t s = 1; s + 1 < step_begin_.size(); ++s) {
      const sim::SimTime t_announce =
          config_.schedule.interval_start(s) + 250 * sim::kMillisecond;
      const sim::SimTime t_reveal =
          config_.schedule.interval_start(s) + 500 * sim::kMillisecond;
      for (std::uint32_t r = 0; r < receivers; ++r) {
        protocol::DapReceiver& rx = *receivers_[r];
        const std::uint64_t trace =
            (ctx.segment << 40) | (std::uint64_t{r} << 24) | s;
        const Span step(ctx.spans, Layer::kStep, trace, r, sampled(s));
        const Clock::time_point t0 = Clock::now();
        for (std::size_t f = step_begin_[s - 1]; f < step_begin_[s]; ++f) {
          const Frame& frame = frames_[f];
          if (frame.reveal && frame.message >= 0 &&
              delivered_[r][std::size_t{s - 2} * shape_.messages +
                            static_cast<std::size_t>(frame.message)] == 0) {
            continue;  // genuine reveal lost on the way to this receiver
          }
          ++frames;
          std::optional<wire::Packet> packet;
          {
            const Span span(ctx.spans, Layer::kDeframe, trace, r, sampled(s));
            packet = wire::deframe(dap::common::ByteView(
                arena_.data() + frame.offset, frame.size));
          }
          if (!packet.has_value()) {
            ++deframe_failures;
            continue;
          }
          if (const auto* announce = std::get_if<wire::MacAnnounce>(&*packet)) {
            const Span span(ctx.spans, Layer::kReceive, trace, r, sampled(s));
            rx.receive(*announce, t_announce);
          } else if (const auto* reveal =
                         std::get_if<wire::MessageReveal>(&*packet)) {
            {
              const Span span(ctx.spans, Layer::kEnqueue, trace, r,
                              sampled(s));
              rx.enqueue(*reveal);
            }
            if (frame.message >= 0) ++genuine_delivered;
          }
        }
        std::vector<std::optional<tesla::AuthenticatedMessage>> results;
        {
          const Span span(ctx.spans, Layer::kDrain, trace, r, sampled(s));
          results = rx.drain_pending_batch(t_reveal);
        }
        for (const auto& result : results) {
          if (!result.has_value()) continue;
          ++(forged_payload(result->message) ? forged_accepted
                                             : genuine_authenticated);
        }
        ctx.record_step(t0);
      }
    }
    auto& counts = outcome_.counts;
    counts["deframe_failures"] += deframe_failures;
    counts["genuine_delivered"] += genuine_delivered;
    counts["genuine_authenticated"] += genuine_authenticated;
    counts["forged_accepted"] += forged_accepted;
    return frames;
  }

 private:
  struct Frame {
    std::size_t offset = 0;
    std::size_t size = 0;
    bool reveal = false;
    std::int32_t message = -1;  // genuine reveal's message index; -1 otherwise
  };

  RxShape shape_;
  Outcome& outcome_;
  dap::protocol::DapConfig config_;
  std::vector<std::uint8_t> arena_;
  std::vector<Frame> frames_;
  std::vector<std::size_t> step_begin_;
  std::vector<std::unique_ptr<dap::protocol::DapReceiver>> receivers_;
  /// delivered_[r][(interval - 1) * messages + k]: genuine reveal k of
  /// that interval reaches receiver r.
  std::vector<std::vector<std::uint8_t>> delivered_;
};

// ------------------------------------------------------------ fleet_*

/// One FleetSim per segment; each cohort drain is a step, timed from
/// before_drain to after_drain.
class FleetWorkload final : public Workload,
                            public dap::fleet::DrainParticipant {
 public:
  FleetWorkload(dap::fleet::ScenarioSpec spec, std::uint32_t small_intervals,
                Outcome& outcome)
      : base_(std::move(spec)),
        small_intervals_(small_intervals),
        outcome_(outcome) {}

  void setup(std::uint64_t seed, bool small) override {
    dap::fleet::ScenarioSpec spec = base_;
    spec.seed = seed;
    if (small) {
      spec.intervals = small_intervals_;
    } else {
      // Bring-up: a two-interval run of the same shape, so lazy set-up
      // (thread pool, telemetry handles, allocator) is paid before timing.
      dap::fleet::ScenarioSpec warm = spec;
      warm.seed = subseed(seed, 0x3a11);
      warm.intervals = 2;
      dap::fleet::FleetSim warm_sim(warm);
      absorb(warm_sim.run());
    }
    sim_ = std::make_unique<dap::fleet::FleetSim>(spec);
    sim_->set_drain_participant(this);
  }

  std::uint64_t run(Context& ctx) override {
    ctx_ = &ctx;
    sweep_ = 0;
    last_node_ = 0;
    dap::fleet::FleetReport report;
    {
      const Span span(ctx.spans, Layer::kFleetRun, ctx.segment, 0, true);
      report = sim_->run();
    }
    absorb(report);
    std::uint64_t packets_in = 0;
    for (std::uint32_t v = 0; v < sim_->topology().node_count; ++v) {
      packets_in += sim_->node_traffic(v).packets_in;
    }
    ctx.count("fleet.packets_in", packets_in);
    ctx.count("fleet.dedup_dropped", report.dedup_dropped);
    ctx.count("fleet.guard.evicted", report.guard_evicted);
    ctx.peak("fleet.stored_records_peak", report.stored_records_peak);
    ctx_ = nullptr;
    return report.total_members * report.intervals;
  }

  void before_drain(std::uint32_t node,
                    dap::fleet::ReceiverCohort& /*cohort*/) override {
    if (node <= last_node_) ++sweep_;
    last_node_ = node;
    ctx_->spans.begin(Layer::kFleetDrain, ctx_->segment, node,
                      sampled(sweep_));
    drain_start_ = Clock::now();
  }

  void after_drain(
      std::uint32_t /*node*/, dap::fleet::ReceiverCohort& cohort,
      const std::vector<dap::fleet::RevealOutcome>& /*outcomes*/) override {
    ctx_->record_step(drain_start_);
    ctx_->spans.end();
    ctx_->count("fleet.drain.members", cohort.members());
  }

 private:
  void absorb(const dap::fleet::FleetReport& report) {
    auto& counts = outcome_.counts;
    counts["member_intervals"] += report.total_members * report.intervals;
    counts["auths"] += report.member_auths + report.sentinel_auths;
    counts["forged_accepted"] += report.forged_accepted;
    for (const std::uint64_t v :
         {report.member_auths, report.sentinel_auths, report.forged_accepted,
          report.weak_auth_failures, report.announces_unsafe,
          report.dedup_dropped, report.guard_evicted,
          report.stored_records_peak, report.total_bits}) {
      outcome_.mix(v);
    }
  }

  dap::fleet::ScenarioSpec base_;
  std::uint32_t small_intervals_;
  Outcome& outcome_;
  std::unique_ptr<dap::fleet::FleetSim> sim_;
  Context* ctx_ = nullptr;
  std::uint64_t sweep_ = 0;
  std::uint32_t last_node_ = 0;
  Clock::time_point drain_start_{};
};

// ------------------------------------------------------------ mc_sweep

/// The paper's E7 grid, one attack_success_sweep call per (p, m) cell so
/// each cell is a timed step. Each call runs its trials on the parallel
/// engine.
class McWorkload final : public Workload {
 public:
  static constexpr std::array<double, 5> kPs = {0.5, 0.7, 0.8, 0.9, 0.95};
  static constexpr std::array<std::size_t, 5> kMs = {1, 2, 4, 8, 16};
  static constexpr std::size_t kCells = kPs.size() * kMs.size();

  McWorkload(std::size_t trials, std::size_t small_trials, Outcome& outcome)
      : trials_(trials), small_trials_(small_trials), outcome_(outcome) {}

  void setup(std::uint64_t seed, bool small) override {
    seed_ = seed;
    per_call_ = small ? small_trials_ : trials_;
    if (!small) {
      // Warm-up: two trials per cell before timing.
      for (std::size_t c = 0; c < kCells; ++c) {
        call(c, 2, subseed(seed, kCells + c));
      }
    }
  }

  std::uint64_t run(Context& ctx) override {
    std::uint64_t trials = 0;
    for (std::size_t c = 0; c < kCells; ++c) {
      const std::uint64_t index = ctx.segment * kCells + c;
      const Span span(ctx.spans, Layer::kSweep, index, 0, sampled(index));
      const Clock::time_point t0 = Clock::now();
      trials += call(c, per_call_, subseed(seed_, c));
      ctx.record_step(t0);
    }
    return trials;
  }

 private:
  std::uint64_t call(std::size_t cell, std::size_t trials,
                     std::uint64_t seed) {
    const double p = kPs[cell / kMs.size()];
    const std::size_t m = kMs[cell % kMs.size()];
    const std::vector<dap::analysis::SweepPoint> points =
        dap::analysis::attack_success_sweep({p}, {m}, trials, seed);
    const dap::analysis::MonteCarloResult& result = points.at(0).result;
    const auto defeated = static_cast<std::uint64_t>(std::llround(
        result.measured_attack_success * static_cast<double>(result.trials)));
    const std::string key = "cell." + std::to_string(cell) + ".";
    outcome_.counts[key + "trials"] += result.trials;
    outcome_.counts[key + "defeated"] += defeated;
    outcome_.mix(defeated);
    return result.trials;
  }

  std::size_t trials_;
  std::size_t small_trials_;
  Outcome& outcome_;
  std::uint64_t seed_ = 0;
  std::size_t per_call_ = 0;
};

// ------------------------------------------------------- registry deltas

constexpr std::array<std::string_view, 11> kCounters = {
    "dap.records_offered",     "dap.records_stored",
    "dap.reveals_received",    "dap.weak_auth_failures",
    "dap.reveal_batches",      "dap.batched_reveals",
    "crypto.hmac_calls",       "crypto.prf_calls",
    "crypto.chain_walk_steps", "crypto.batch.blocks",
    "crypto.batch.idle_lane_blocks"};
constexpr std::array<std::string_view, 6> kHistograms = {
    "crypto.hmac_us",           "crypto.prf_us",
    "crypto.chain_walk_us",     "crypto.keychain_build_us",
    "dap.rx_announce_us",       "dap.rx_reveal_us"};

struct RegistrySnapshot {
  std::array<std::uint64_t, kCounters.size()> counters{};
  std::array<double, kHistograms.size()> sums_us{};
  std::uint64_t keychain_builds = 0;

  static RegistrySnapshot take() {
    const dap::obs::Registry& reg = dap::obs::Registry::global();
    RegistrySnapshot snap;
    for (std::size_t i = 0; i < kCounters.size(); ++i) {
      const std::uint64_t* v = reg.find_counter(kCounters[i]);
      snap.counters[i] = v != nullptr ? *v : 0;
    }
    for (std::size_t i = 0; i < kHistograms.size(); ++i) {
      const dap::obs::LatencyHistogram* h = reg.find_histogram(kHistograms[i]);
      snap.sums_us[i] = h != nullptr ? h->sum() : 0.0;
    }
    // Chains have no call counter; their build timer counts them.
    const dap::obs::LatencyHistogram* builds =
        reg.find_histogram("crypto.keychain_build_us");
    snap.keychain_builds = builds != nullptr ? builds->count() : 0;
    return snap;
  }
};

// ------------------------------------------------------ host speed probe

/// Probes per second of fixed reference work that does not touch the
/// program under test: churn of small heap blocks through a std::map, the
/// allocation-heavy pattern the receive, drain and replay paths share. A
/// shared host's speed drifts by up to 1.6x within a minute as
/// neighbouring tenants load it. Timed right before and after each
/// segment, the probe drifts with the workloads (throughput / probe rate
/// spreads 1-4% across runs, against 8-25% for raw throughput), so run.py
/// scales segment times by it. A compute-only probe tracked several times
/// worse. With threads > 1 the probe runs on that many threads at once
/// and the mean rate is returned.
double probe_rate(std::size_t threads) {
  const auto probe = [] {
    const Clock::time_point t0 = Clock::now();
    std::map<std::uint32_t, std::vector<std::uint8_t>> live;
    std::uint64_t state = 7;
    for (int i = 0; i < 40000; ++i) {
      const std::uint64_t x = dap::common::splitmix64(state);
      live[static_cast<std::uint32_t>(x & 1023)] = std::vector<std::uint8_t>(
          16 + (x >> 20) % 64, static_cast<std::uint8_t>(x));
      if (live.size() > 256) live.erase(live.begin());
    }
    if (live.empty()) std::abort();  // keeps the loop observable
    return 1.0 / seconds_since(t0);
  };
  if (threads <= 1) return probe();
  std::vector<double> rates(threads);
  {
    std::vector<std::jthread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&rates, &probe, t] { rates[t] = probe(); });
    }
  }  // joins
  double sum = 0.0;
  for (const double r : rates) sum += r;
  return sum / static_cast<double>(threads);
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

/// Peak resident set of this process image in MiB. Read from VmHWM, not
/// getrusage: ru_maxrss survives execve, so a driver spawned by the
/// Python runner would report the runner's own peak whenever it is larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ----------------------------------------------------------------- main

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t threads = 0;
  std::size_t units = 0;
  std::string out_dir;
};

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
    } else if (arg == "--trace") {
      o.trace = true;
    } else if (arg == "--threads") {
      o.threads = std::stoul(value());
    } else if (arg == "--units") {
      o.units = std::stoul(value());
    } else if (arg == "--out") {
      o.out_dir = value();
    } else {
      return std::nullopt;
    }
  }
  if (o.workload.empty() || !(o.seconds > 0.0)) return std::nullopt;
  return o;
}

dap::fleet::ScenarioSpec fleet_spec(bool gossip) {
  dap::fleet::ScenarioSpec spec;
  spec.buffers = 4;
  spec.forged_fraction = 0.9;
  spec.interval_us = 200 * dap::sim::kMillisecond;
  spec.hop.latency_us = dap::sim::kMillisecond;
  if (gossip) {
    spec.name = "e2e_gossip";
    spec.kind = dap::fleet::TopologyKind::kGossip;
    spec.relays = 128;
    spec.fanin = 2;
    spec.members_per_cohort = 800;  // 102,400 receivers
    spec.intervals = 24;
  } else {
    spec.name = "e2e_tree";
    spec.kind = dap::fleet::TopologyKind::kTree;
    spec.depth = 3;
    spec.fanout = 4;
    spec.members_per_cohort = 1200;  // 84 cohorts, 100,800 receivers
    spec.intervals = 32;
  }
  return spec;
}

/// The named workload, or null. Sets the workload's thread count and the
/// number of threads the host speed probe runs on: as many as the workload
/// keeps busy. fleet_* uses 4 threads but spends about half its time in
/// the serial event loop (parallel.cpu_util ~0.5), and a one-thread probe
/// tracked it best (2-3% against 3-14% for four). mc_sweep keeps all four
/// busy (~0.9), and a four-thread probe tracked it at <= 3% where one
/// thread gave 2-10%.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        Outcome& outcome, std::size_t& threads,
                                        std::size_t& probe_threads) {
  probe_threads = 1;
  const std::size_t wide = std::min<std::size_t>(
      4, dap::common::hardware_threads());
  if (name == "rx_flood") {
    threads = 1;
    RxShape shape;  // 4 authentic + 76 forged announce copies, p = 0.95
    return std::make_unique<RxWorkload>(shape, outcome);
  }
  if (name == "rx_verify") {
    threads = 1;
    RxShape shape;
    shape.intervals = 800;
    shape.messages = 4;
    shape.copies = 1;
    shape.forged_announces = 0;
    shape.forged_reveals = 12;
    shape.reveal_loss = 0.25;
    return std::make_unique<RxWorkload>(shape, outcome);
  }
  if (name == "fleet_tree" || name == "fleet_gossip") {
    threads = wide;
    return std::make_unique<FleetWorkload>(
        fleet_spec(name == "fleet_gossip"), 2, outcome);
  }
  if (name == "mc_sweep") {
    threads = wide;
    probe_threads = wide;
    return std::make_unique<McWorkload>(48, 8, outcome);
  }
  return nullptr;
}

void write_chrome_trace(const SpanLedger& ledger, const std::string& path) {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const SpanLedger::Kept& s : ledger.kept()) {
    out << (first ? "" : ",") << "\n{\"name\":\""
        << kLayerNames[static_cast<std::size_t>(s.layer)]
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.lane
        << ",\"ts\":" << fmt(static_cast<double>(s.start_ns) / 1e3)
        << ",\"dur\":" << fmt(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"trace\":" << s.trace << "}}";
    first = false;
  }
  out << "\n],\"displayTimeUnit\":\"ns\"}\n";
}

int run_main(const Options& opt) {
  Outcome outcome;
  std::size_t threads = 1;
  std::size_t probe_threads = 1;
  std::unique_ptr<Workload> workload =
      make_workload(opt.workload, outcome, threads, probe_threads);
  if (!workload) {
    std::cerr << "dap_e2e: unknown workload '" << opt.workload << "'\n";
    return 2;
  }
  if (opt.threads != 0) {
    threads = opt.threads;
    probe_threads = std::min(probe_threads, threads);
  }
  dap::common::set_default_threads(threads);

  const Clock::time_point origin = Clock::now();
  SpanLedger ledger(origin);
  std::vector<float> steps;
  std::map<std::string, std::uint64_t> layer_counts;
  RegistrySnapshot reg_delta;  // summed over traced segments
  double timed_s = 0.0;
  double cpu_s = 0.0;
  std::size_t segment_count = 0;

  for (std::uint64_t k = 0;; ++k) {
    if (opt.units != 0 ? k >= opt.units
                       : timed_s >= opt.seconds && k >= (opt.trace ? 2U : 1U)) {
      break;
    }
    const bool traced = opt.trace && k % 2 == 0;
    Clock::time_point t0 = Clock::now();
    workload->setup(subseed(opt.seed, k), false);
    const double setup_s = seconds_since(t0);

    steps.clear();
    Context ctx{ledger, traced ? nullptr : &steps, k,
                traced ? &layer_counts : nullptr};
    const double probe_before = probe_rate(probe_threads);
    const RegistrySnapshot before = RegistrySnapshot::take();
    const double cpu0 = cpu_seconds();
    ledger.set_enabled(traced);
    t0 = Clock::now();
    const std::uint64_t work = workload->run(ctx);
    const double wall_s = seconds_since(t0);
    ledger.set_enabled(false);
    cpu_s += cpu_seconds() - cpu0;
    if (traced) {
      const RegistrySnapshot after = RegistrySnapshot::take();
      for (std::size_t i = 0; i < kCounters.size(); ++i) {
        reg_delta.counters[i] += after.counters[i] - before.counters[i];
      }
      for (std::size_t i = 0; i < kHistograms.size(); ++i) {
        reg_delta.sums_us[i] += after.sums_us[i] - before.sums_us[i];
      }
      reg_delta.keychain_builds +=
          after.keychain_builds - before.keychain_builds;
    }
    const double probe = (probe_before + probe_rate(probe_threads)) / 2;
    timed_s += wall_s;
    ++segment_count;
    // One line per segment, so the driver never holds more than one
    // segment's step latencies and its peak RSS does not grow with the
    // number of segments a faster build fits into --seconds.
    std::string line = "{\"segment\":[" + fmt(setup_s) + "," + fmt(wall_s) +
                       "," + std::to_string(work) + "," +
                       (traced ? "1" : "0") + "," + fmt(probe) +
                       "],\"steps_us\":[";
    for (std::size_t i = 0; i < steps.size(); ++i) {
      char buf[24];
      std::snprintf(buf, sizeof buf, "%s%.3f", i ? "," : "",
                    static_cast<double>(steps[i]));
      line += buf;
    }
    std::cout << line << "]}\n";
  }

  // Overhead passes (traced runs): the same small unit with the default
  // settings, with program timers off, and with the flight recorder on at
  // its default capacity. Modes rotate so no mode always runs first.
  double timing_tax = 0.0;
  double recorder_tax = 0.0;
  if (opt.trace) {
    std::vector<double> timing, recorder;
    for (std::uint64_t rep = 0; rep < 3; ++rep) {
      std::array<double, 3> per_item{};
      for (std::size_t step = 0; step < 3; ++step) {
        const std::size_t mode = (step + rep) % 3;  // 0 default, 1 off, 2 rec
        workload->setup(subseed(opt.seed, 1000 + rep), true);
        if (mode == 1) dap::obs::set_timing_enabled(false);
        if (mode == 2) dap::obs::Tracer::global().enable(true);
        Context ctx{ledger, nullptr, 1000 + rep, nullptr};
        const Clock::time_point t0 = Clock::now();
        const std::uint64_t work = workload->run(ctx);
        per_item[mode] = seconds_since(t0) / static_cast<double>(work);
        dap::obs::set_timing_enabled(true);
        dap::obs::Tracer::global().enable(false);
        dap::obs::Tracer::global().clear();
      }
      timing.push_back(per_item[0] / per_item[1]);
      recorder.push_back(per_item[2] / per_item[0]);
    }
    std::sort(timing.begin(), timing.end());
    std::sort(recorder.begin(), recorder.end());
    timing_tax = timing[1];
    recorder_tax = recorder[1];
    if (!opt.out_dir.empty()) {
      std::filesystem::create_directories(opt.out_dir);
      write_chrome_trace(ledger, opt.out_dir + "/trace.json");
    }
  }

  std::string out = "{\"workload\":\"" + opt.workload + "\"";
  out += ",\"threads\":" + std::to_string(threads);
  out += ",\"seed\":" + std::to_string(opt.seed);
  out += ",\"segments\":" + std::to_string(segment_count);
  out += ",\"outcome\":{";
  bool first = true;
  for (const auto& [name, v] : outcome.counts) {
    out += (first ? "\"" : ",\"") + name + "\":" + std::to_string(v);
    first = false;
  }
  char digest[24];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(outcome.digest));
  out += "},\"digest\":\"" + std::string(digest) + "\"";
  out += ",\"peak_rss_mb\":" + fmt(peak_rss_mb());
  out += ",\"cpu_s\":" + fmt(cpu_s) + ",\"timed_s\":" + fmt(timed_s);
  if (opt.trace) {
    out += ",\"trace\":{\"layers\":{";
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      const SpanLedger::Totals& t = ledger.totals()[l];
      out += (l ? ",\"" : "\"") + std::string(kLayerNames[l]) + "\":[" +
             std::to_string(t.calls) + "," +
             fmt(static_cast<double>(t.self_ns) / 1e9) + "]";
    }
    out += "},\"counters\":{";
    for (std::size_t i = 0; i < kCounters.size(); ++i) {
      out += (i ? ",\"" : "\"") + std::string(kCounters[i]) +
             "\":" + std::to_string(reg_delta.counters[i]);
    }
    for (const auto& [name, v] : layer_counts) {
      out += ",\"" + name + "\":" + std::to_string(v);
    }
    out += ",\"crypto.keychain_builds\":" +
           std::to_string(reg_delta.keychain_builds);
    out += "},\"busy_s\":{";
    for (std::size_t i = 0; i < kHistograms.size(); ++i) {
      out += (i ? ",\"" : "\"") + std::string(kHistograms[i]) +
             "\":" + fmt(reg_delta.sums_us[i] / 1e6);
    }
    out += "},\"spans_kept\":" + std::to_string(ledger.kept().size());
    out += ",\"spans_dropped\":" + std::to_string(ledger.dropped());
    out += ",\"timing_tax\":" + fmt(timing_tax);
    out += ",\"recorder_tax\":" + fmt(recorder_tax) + "}";
  }
  out += "}";
  std::cout << out << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::optional<Options> opt = parse(argc, argv);
    if (!opt) {
      std::cerr << "usage: dap_e2e --workload NAME [--seed N] [--seconds S] "
                   "[--trace] [--threads N] [--units N] [--out DIR]\n";
      return 2;
    }
    return run_main(*opt);
  } catch (const std::exception& e) {
    std::cerr << "dap_e2e: " << e.what() << "\n";
    return 1;
  }
}
