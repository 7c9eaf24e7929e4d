#pragma once
// Shared output helpers for the experiment binaries: every bench prints
// a banner, an aligned table, an ASCII rendering of the figure's shape,
// writes the raw series to bench_out/<name>.csv for re-plotting, and
// leaves a machine-readable run summary (counters + histogram
// percentiles + wall time from the obs registry) in
// bench_out/<name>.metrics.json — the perf-trajectory baseline future
// PRs diff against. The summary footer also records the parallel-engine
// thread count, the host's core count, peak RSS, per-phase wall times,
// the scenario id, and the tracer's event/span drop accounting so
// speedup runs are self-describing across hosts.
//
// Every footer() additionally materialises the run registry: a
// bench_out/runs/<run_id>/ directory holding manifest.json (schema
// dap.run_manifest.v1: bench, scenario, command line, threads, cores,
// git rev, wall time), the metrics footer, the CSV series, any
// registered snapshot streams (snapshots.jsonl) and — when tracing is
// enabled — the trace as JSONL and Chrome trace_event JSON. The run id
// comes from $DAP_RUN_ID when set (CI pins it to locate artifacts),
// else <name>-<utc-stamp>-<pid>.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/ascii_chart.h"
#include "common/csv.h"
#include "common/parallel.h"
#include "common/table.h"
#include "obs/export.h"
#include "obs/registry.h"
#include "obs/scoped_timer.h"
#include "obs/snapshot.h"
#include "obs/tracer.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace dap::bench {

namespace detail {
/// Pinned on first use; banner() touches it so wall time covers the run.
inline std::chrono::steady_clock::time_point run_start() {
  static const auto start = std::chrono::steady_clock::now();
  return start;
}

/// Wall seconds per completed named phase, in completion order; rendered
/// into the metrics footer as the "phases" object.
inline std::map<std::string, double>& phase_walls() {
  static std::map<std::string, double> walls;
  return walls;
}

/// Topology/scenario identifier for the footer (empty until a bench
/// calls set_run_scenario).
inline std::string& run_scenario() {
  static std::string id;
  return id;
}

/// Command line captured by configure_threads, for the run manifest.
inline std::vector<std::string>& run_args() {
  static std::vector<std::string> args;
  return args;
}

/// Snapshot streams registered for the run registry, in registration
/// order (one Snapshotter per scenario; streams concatenate as JSONL).
inline std::string& snapshot_stream() {
  static std::string stream;
  return stream;
}

/// Bench-specific footer fields (name -> rendered JSON value), added by
/// add_footer_field.
inline std::map<std::string, std::string>& footer_fields() {
  static std::map<std::string, std::string> fields;
  return fields;
}
}  // namespace detail

/// Adds a field to this run's metrics footer; `json_value` is already
/// rendered JSON (a number, a quoted string, an array).
inline void add_footer_field(const std::string& name,
                             const std::string& json_value) {
  detail::footer_fields()[name] = json_value;
}

/// Records a compact scenario/topology identifier in the metrics footer
/// ("scenario" field), so a BENCH_*.json captured on one host says what
/// was actually simulated — not just how fast.
inline void set_run_scenario(const std::string& id) {
  detail::run_scenario() = id;
}

inline std::string csv_path(const std::string& name) {
  std::filesystem::create_directories("bench_out");
  return "bench_out/" + name + ".csv";
}

inline std::string metrics_path(const std::string& name) {
  std::filesystem::create_directories("bench_out");
  return "bench_out/" + name + ".metrics.json";
}

/// Parses `--threads N` (or `--threads=N`) from argv and pins the
/// parallel engine's default worker count; without the flag the default
/// stands (DAP_THREADS env override, else hardware concurrency). Returns
/// the thread count now in effect. Unrelated arguments are ignored so
/// benches can mix this with their own flags (e.g. --smoke).
inline std::size_t configure_threads(int argc, char** argv) {
  detail::run_args().assign(argv, argv + argc);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--threads" && i + 1 < argc) {
      value = argv[i + 1];
    } else if (arg.rfind("--threads=", 0) == 0) {
      value = arg.substr(std::string("--threads=").size());
    } else {
      continue;
    }
    char* end = nullptr;
    const unsigned long parsed = std::strtoul(value.c_str(), &end, 10);
    if (end != nullptr && *end == '\0' && parsed > 0) {
      common::set_default_threads(static_cast<std::size_t>(parsed));
    } else {
      std::cerr << "[bench] ignoring invalid --threads value '" << value
                << "'\n";
    }
    break;
  }
  return common::default_threads();
}

/// Peak resident set size in KiB, or 0 where unavailable. Linux reads
/// VmHWM from /proc/self/status first: getrusage's ru_maxrss survives
/// execve, so a bench spawned by a larger process would report that
/// process's peak instead of its own.
inline std::uint64_t peak_rss_kb() {
#if defined(__linux__)
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);  // "<n> kB"
    }
  }
#endif
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) == 0 && usage.ru_maxrss > 0) {
#if defined(__APPLE__)
    return static_cast<std::uint64_t>(usage.ru_maxrss) / 1024;  // bytes
#else
    return static_cast<std::uint64_t>(usage.ru_maxrss);  // KiB already
#endif
  }
#endif
  return 0;
}

/// Times a named phase of a bench into the global registry (histogram
/// `bench.<phase>_us`), so figure benches and micro benches report
/// through the same log-bucketed histogram type.
[[nodiscard]] inline obs::ScopedTimer scoped_timer(const std::string& phase) {
  return obs::ScopedTimer(
      obs::Registry::global().histogram("bench." + phase + "_us"));
}

/// RAII phase clock: on destruction records the phase's wall seconds
/// into the footer's "phases" map AND the `bench.<phase>_us` histogram.
/// Re-entering a phase name accumulates.
class PhaseTimer {
 public:
  explicit PhaseTimer(std::string phase)
      : phase_(std::move(phase)),
        timer_(scoped_timer(phase_)),
        start_(std::chrono::steady_clock::now()) {}
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;
  ~PhaseTimer() {
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    detail::phase_walls()[phase_] += seconds;
  }

 private:
  std::string phase_;
  obs::ScopedTimer timer_;
  std::chrono::steady_clock::time_point start_;
};

inline void banner(const std::string& title, const std::string& paper_ref,
                   const std::string& expectation) {
  detail::run_start();
  std::cout << "================================================================\n"
            << title << '\n'
            << "Reproduces: " << paper_ref << '\n'
            << "Expected shape: " << expectation << '\n'
            << "================================================================\n";
}

/// Appends one scenario's snapshot stream to the run registry's
/// snapshots.jsonl (written by footer() when non-empty). Call in a
/// deterministic order — typically spec order after a parallel fan-out.
inline void append_snapshots(const obs::Snapshotter& snapshotter) {
  detail::snapshot_stream() += snapshotter.stream();
}

namespace detail {
/// Renders the run-environment footer fields ("threads", "cpu_cores",
/// "parallel_spin_s", "peak_rss_kb", "scenario", "phases", trace drop
/// accounting, then any add_footer_field fields) as a JSON fragment for
/// metrics_json's extra_fields slot. cpu_cores disambiguates speedup
/// numbers across hosts (a ~1.0 speedup on a 1-core machine is
/// expected, not a regression); parallel_spin_s is the wall time pool
/// threads spent spinning, which CPU-time figures count as busy;
/// scenario says what the run simulated; the trace totals make silent
/// ring-buffer event loss visible (smoke suites assert the dropped
/// fields are zero).
inline std::string footer_extra_fields() {
  std::string out = "\"threads\": " + std::to_string(common::default_threads());
  out += ", \"cpu_cores\": " + std::to_string(common::hardware_threads());
  out += ", \"parallel_spin_s\": " +
         obs::detail::json_number(common::parallel_spin_seconds());
  out += ", \"peak_rss_kb\": " + std::to_string(peak_rss_kb());
  out += ", \"scenario\": \"" + run_scenario() + "\"";
  const obs::Tracer& tracer = obs::Tracer::global();
  out += ", \"trace_events_total\": " + std::to_string(tracer.total_recorded());
  out += ", \"trace_events_dropped\": " + std::to_string(tracer.dropped());
  out += ", \"trace_spans_total\": " +
         std::to_string(tracer.spans_total_recorded());
  out += ", \"trace_spans_dropped\": " + std::to_string(tracer.spans_dropped());
  out += ", \"phases\": {";
  bool first = true;
  for (const auto& [phase, seconds] : phase_walls()) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6f", seconds);
    out += std::string(first ? "" : ", ") + "\"" + phase + "\": " + buf;
    first = false;
  }
  out += "}";
  for (const auto& [name, value] : footer_fields()) {
    out += ", \"" + name + "\": " + value;
  }
  return out;
}

/// Run id for the run registry: $DAP_RUN_ID (CI pins it) or
/// <name>-<utc-stamp>-<pid>.
inline std::string run_id(const std::string& name) {
  if (const char* pinned = std::getenv("DAP_RUN_ID");
      pinned != nullptr && *pinned != '\0') {
    return pinned;
  }
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
#if defined(_WIN32)
  gmtime_s(&utc, &now);
#else
  gmtime_r(&now, &utc);
#endif
  char stamp[32];
  std::strftime(stamp, sizeof stamp, "%Y%m%dT%H%M%SZ", &utc);
  long pid = 0;
#if defined(__unix__) || defined(__APPLE__)
  pid = static_cast<long>(getpid());
#endif
  return name + "-" + stamp + "-" + std::to_string(pid);
}

/// Commit the binary was built from: $DAP_GIT_REV, else $GITHUB_SHA,
/// else the .git/HEAD walk from the working directory; "unknown" when
/// none resolves.
inline std::string git_rev() {
  for (const char* var : {"DAP_GIT_REV", "GITHUB_SHA"}) {
    if (const char* rev = std::getenv(var); rev != nullptr && *rev != '\0') {
      return rev;
    }
  }
  namespace fs = std::filesystem;
  std::error_code ec;
  for (fs::path dir = fs::current_path(ec); !ec && !dir.empty();
       dir = dir.parent_path()) {
    const fs::path head = dir / ".git" / "HEAD";
    if (fs::exists(head, ec)) {
      std::ifstream in(head);
      std::string line;
      if (std::getline(in, line)) {
        if (line.rfind("ref: ", 0) == 0) {
          std::ifstream ref(dir / ".git" / line.substr(5));
          std::string sha;
          if (std::getline(ref, sha) && !sha.empty()) return sha;
          return line.substr(5);  // unborn branch: name is the best we have
        }
        if (!line.empty()) return line;  // detached HEAD holds the sha
      }
      break;
    }
    if (dir == dir.root_path()) break;
  }
  return "unknown";
}

/// Renders and writes manifest.json (schema dap.run_manifest.v1).
inline void write_manifest(const std::string& dir, const std::string& id,
                           const std::string& name, double wall_seconds) {
  std::string out = "{\n  \"schema\": \"dap.run_manifest.v1\"";
  out += ",\n  \"run_id\": " + obs::detail::json_string(id);
  out += ",\n  \"bench\": " + obs::detail::json_string(name);
  out += ",\n  \"scenario\": " + obs::detail::json_string(run_scenario());
  out += ",\n  \"args\": [";
  bool first = true;
  for (const std::string& arg : run_args()) {
    out += std::string(first ? "" : ", ") + obs::detail::json_string(arg);
    first = false;
  }
  out += "]";
  out += ",\n  \"threads\": " + std::to_string(common::default_threads());
  out += ",\n  \"cpu_cores\": " + std::to_string(common::hardware_threads());
  out += ",\n  \"peak_rss_kb\": " + std::to_string(peak_rss_kb());
  out += ",\n  \"wall_seconds\": " + obs::detail::json_number(wall_seconds);
  out += ",\n  \"git_rev\": " + obs::detail::json_string(git_rev());
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
#if defined(_WIN32)
  gmtime_s(&utc, &now);
#else
  gmtime_r(&now, &utc);
#endif
  char stamp[32];
  std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ", &utc);
  out += ",\n  \"created_utc\": " + obs::detail::json_string(stamp);
  out += "\n}\n";
  std::ofstream(dir + "/manifest.json") << out;
}
}  // namespace detail

/// Writes the global-registry snapshot (plus wall time since banner and
/// the thread/RSS/phase footer fields) to bench_out/<name>.metrics.json.
inline void write_run_summary(const std::string& name) {
  auto& reg = obs::Registry::global();
  reg.add(reg.counter("bench.completed"));
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    detail::run_start())
          .count();
  reg.observe(reg.histogram("bench.wall_us"), wall_seconds * 1e6);
  obs::write_metrics_json(reg, metrics_path(name), wall_seconds,
                          detail::footer_extra_fields());
}

/// Materialises bench_out/runs/<run_id>/: manifest, metrics footer, the
/// CSV series (copied from the legacy flat path), any registered
/// snapshot streams, and the trace exports when tracing is enabled.
/// Returns the run directory path.
inline std::string write_run_registry(const std::string& name,
                                      double wall_seconds) {
  const std::string id = detail::run_id(name);
  const std::string dir = "bench_out/runs/" + id;
  std::filesystem::create_directories(dir);
  detail::write_manifest(dir, id, name, wall_seconds);
  obs::write_metrics_json(obs::Registry::global(), dir + "/metrics.json",
                          wall_seconds, detail::footer_extra_fields());
  std::error_code ec;
  const std::string flat_csv = csv_path(name);
  if (std::filesystem::exists(flat_csv, ec)) {
    std::filesystem::copy_file(
        flat_csv, dir + "/" + name + ".csv",
        std::filesystem::copy_options::overwrite_existing, ec);
  }
  if (!detail::snapshot_stream().empty()) {
    std::ofstream(dir + "/snapshots.jsonl") << detail::snapshot_stream();
  }
  const obs::Tracer& tracer = obs::Tracer::global();
  if (tracer.enabled() &&
      (tracer.total_recorded() > 0 || tracer.spans_total_recorded() > 0)) {
    obs::write_trace_jsonl(tracer, dir + "/trace.jsonl");
    obs::write_chrome_trace(tracer, dir + "/trace.json");
  }
  return dir;
}

inline void footer(const std::string& name) {
  write_run_summary(name);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    detail::run_start())
          .count();
  const std::string run_dir = write_run_registry(name, wall_seconds);
  std::cout << "[series written to " << csv_path(name) << "]\n"
            << "[run summary written to " << metrics_path(name) << "]\n"
            << "[run registry written to " << run_dir << "]\n\n";
}

}  // namespace dap::bench
