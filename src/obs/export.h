#pragma once
// Machine-readable telemetry exports.
//
// `metrics_json` renders a Registry snapshot as a stable JSON document
// (schema "dap.metrics.v2"): counters, gauges, rate estimators with
// Wilson intervals, and histograms with exact moments plus p50/p90/p99
// and the non-empty bucket boundaries (so downstream trend tooling can
// compare full distributions, not just summary quantiles).
// `write_metrics_json` writes it next to a bench's CSV output so every
// run leaves a perf-trajectory data point behind. Trace file helpers
// wrap the Tracer's stream exporters.

#include <string>
#include <string_view>

#include "obs/registry.h"
#include "obs/tracer.h"

namespace dap::obs {

namespace detail {
/// Finite doubles render with %.12g; inf/nan render as JSON null.
[[nodiscard]] std::string json_number(double v);
/// Quotes + escapes `s` as a JSON string literal.
[[nodiscard]] std::string json_string(std::string_view s);
}  // namespace detail

/// JSON snapshot of every instrument in `registry`. `wall_seconds` < 0
/// omits the wall-time field. `extra_fields` — pre-rendered JSON members
/// such as `"threads": 4, "peak_rss_kb": 1234` (no surrounding braces, no
/// trailing comma) — is spliced in right after the wall-time field; an
/// empty string adds nothing. The caller owns the validity of the
/// rendered fragment.
[[nodiscard]] std::string metrics_json(const Registry& registry,
                                       double wall_seconds = -1.0,
                                       const std::string& extra_fields = {});

/// Writes `metrics_json` to `path`, creating parent directories.
/// Throws std::runtime_error when the file cannot be opened.
void write_metrics_json(const Registry& registry, const std::string& path,
                        double wall_seconds, const std::string& extra_fields);

/// Writes the tracer's retained events as JSONL to `path`.
void write_trace_jsonl(const Tracer& tracer, const std::string& path);

/// Writes the tracer's retained events as Chrome trace_event JSON to
/// `path` (open with chrome://tracing or https://ui.perfetto.dev).
void write_chrome_trace(const Tracer& tracer, const std::string& path);

}  // namespace dap::obs
