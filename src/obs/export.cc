#include "obs/export.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace dap::obs {

namespace detail {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";  // JSON has no inf/nan literals
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace detail

namespace {

using detail::json_number;
using detail::json_string;

std::ofstream open_for_write(const std::string& path) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path());
  }
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("obs: cannot open " + path + " for writing");
  }
  return out;
}

}  // namespace

std::string metrics_json(const Registry& registry, double wall_seconds,
                         const std::string& extra_fields) {
  std::ostringstream out;
  out << "{\n  \"schema\": \"dap.metrics.v2\"";
  if (wall_seconds >= 0.0) {
    out << ",\n  \"wall_seconds\": " << json_number(wall_seconds);
  }
  if (!extra_fields.empty()) {
    out << ",\n  " << extra_fields;
  }

  out << ",\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, slot] : registry.sorted_counters()) {
    out << (first ? "" : ",") << "\n    " << json_string(name) << ": "
        << registry.value(CounterHandle{slot});
    first = false;
  }
  out << (first ? "" : "\n  ") << "}";

  out << ",\n  \"gauges\": {";
  first = true;
  for (const auto& [name, slot] : registry.sorted_gauges()) {
    out << (first ? "" : ",") << "\n    " << json_string(name) << ": "
        << json_number(registry.value(GaugeHandle{slot}));
    first = false;
  }
  out << (first ? "" : "\n  ") << "}";

  out << ",\n  \"rates\": {";
  first = true;
  for (const auto& [name, slot] : registry.sorted_rates()) {
    const auto& est = registry.value(RateHandle{slot});
    const auto [lo, hi] = est.wilson95();
    out << (first ? "" : ",") << "\n    " << json_string(name) << ": {"
        << "\"rate\": " << json_number(est.rate())
        << ", \"trials\": " << est.trials()
        << ", \"successes\": " << est.successes() << ", \"wilson95\": ["
        << json_number(lo) << ", " << json_number(hi) << "]}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}";

  out << ",\n  \"histograms\": {";
  first = true;
  for (const auto& [name, slot] : registry.sorted_histograms()) {
    const auto& h = registry.value(HistogramHandle{slot});
    out << (first ? "" : ",") << "\n    " << json_string(name) << ": {"
        << "\"count\": " << h.count() << ", \"sum\": " << json_number(h.sum())
        << ", \"mean\": " << json_number(h.moments().mean())
        << ", \"stddev\": " << json_number(h.moments().stddev())
        << ", \"min\": " << json_number(h.min())
        << ", \"max\": " << json_number(h.max())
        << ", \"p50\": " << json_number(h.p50())
        << ", \"p90\": " << json_number(h.p90())
        << ", \"p99\": " << json_number(h.p99()) << ", \"buckets\": [";
    // Only non-empty buckets appear: [lower, upper, count] triples in
    // bucket order. 514 mostly-zero entries would swamp the document.
    bool first_bucket = true;
    for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
      const std::uint64_t n = h.bucket_count(i);
      if (n == 0) continue;
      out << (first_bucket ? "" : ", ") << "["
          << json_number(LatencyHistogram::bucket_lower(i)) << ", "
          << json_number(LatencyHistogram::bucket_upper(i)) << ", " << n
          << "]";
      first_bucket = false;
    }
    out << "]}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}";

  out << "\n}\n";
  return out.str();
}

void write_metrics_json(const Registry& registry, const std::string& path,
                        double wall_seconds, const std::string& extra_fields) {
  open_for_write(path) << metrics_json(registry, wall_seconds, extra_fields);
}

void write_trace_jsonl(const Tracer& tracer, const std::string& path) {
  auto out = open_for_write(path);
  tracer.export_jsonl(out);
}

void write_chrome_trace(const Tracer& tracer, const std::string& path) {
  auto out = open_for_write(path);
  tracer.export_chrome_trace(out);
}

}  // namespace dap::obs
