#pragma once
// Interval-driven registry snapshots as a JSONL time series.
//
// A Snapshotter turns end-of-run telemetry into trajectories: callers
// hand it the registry at sim-time checkpoints (typically once per
// protocol interval, from the event-driven drain sweep) and it appends
// one compact JSON line per sample — counters, gauges, rate-estimator
// states and histogram summaries at that instant. Cadence is measured
// in *sim* time, so the stream is deterministic and bitwise-identical
// at any DAP_THREADS setting. Schema "dap.snapshots.v1": a header line
//   {"schema":"dap.snapshots.v1","scenario":...,"cadence_us":N}
// followed by sample lines
//   {"seq":0,"t_us":...,"scenario":...,"counters":{...},"gauges":{...},
//    "rates":{name:{"rate":..,"trials":..}},
//    "histograms":{name:{"count":..,"p50":..,"p90":..,"p99":..}}}

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "obs/registry.h"

namespace dap::obs {

class Snapshotter {
 public:
  /// Chooses which histograms appear in samples, by instrument name.
  /// Counters/gauges/rates are always deterministic event counts, but a
  /// histogram fed by a wall-clock ScopedTimer has run-dependent
  /// quantiles — callers that need bitwise-reproducible streams pass a
  /// filter admitting only sim-time instruments (e.g. hop latencies).
  using HistogramFilter = std::function<bool(std::string_view)>;

  /// `label` tags every line (scenario id); `cadence_us` is the minimum
  /// sim-time distance between samples taken via maybe_sample(). The
  /// default filter admits every histogram.
  Snapshotter(std::string label, std::uint64_t cadence_us,
              HistogramFilter histogram_filter = {});

  /// Samples `registry` if `sim_now` has reached the next cadence
  /// boundary; cheap no-op otherwise. Returns true when it sampled.
  bool maybe_sample(const Registry& registry, std::uint64_t sim_now);

  /// Unconditionally samples `registry` at `sim_now` (used for the
  /// final end-of-run sample regardless of cadence phase).
  void sample(const Registry& registry, std::uint64_t sim_now);

  [[nodiscard]] std::size_t samples() const noexcept { return samples_; }
  [[nodiscard]] const std::string& label() const noexcept { return label_; }
  [[nodiscard]] std::uint64_t cadence_us() const noexcept { return cadence_; }

  /// The full JSONL stream (header + one line per sample).
  [[nodiscard]] std::string stream() const;

 private:
  std::string label_;
  std::uint64_t cadence_ = 1;
  std::uint64_t next_due_ = 0;
  std::size_t samples_ = 0;
  HistogramFilter histogram_filter_;
  std::string body_;  // sample lines, appended as taken
};

}  // namespace dap::obs
