#include "obs/snapshot.h"

#include <sstream>

#include "obs/export.h"

namespace dap::obs {

using detail::json_number;
using detail::json_string;

Snapshotter::Snapshotter(std::string label, std::uint64_t cadence_us,
                         HistogramFilter histogram_filter)
    : label_(std::move(label)),
      cadence_(cadence_us == 0 ? 1 : cadence_us),
      next_due_(cadence_),
      histogram_filter_(std::move(histogram_filter)) {}

bool Snapshotter::maybe_sample(const Registry& registry,
                               std::uint64_t sim_now) {
  if (sim_now < next_due_) return false;
  sample(registry, sim_now);
  // Skip boundaries the sim jumped over; the next sample lands on the
  // first cadence multiple strictly after `sim_now`.
  next_due_ = (sim_now / cadence_ + 1) * cadence_;
  return true;
}

void Snapshotter::sample(const Registry& registry, std::uint64_t sim_now) {
  std::ostringstream out;
  out << "{\"seq\":" << samples_ << ",\"t_us\":" << sim_now
      << ",\"scenario\":" << json_string(label_);

  out << ",\"counters\":{";
  bool first = true;
  for (const auto& [name, slot] : registry.sorted_counters()) {
    out << (first ? "" : ",") << json_string(name) << ":"
        << registry.value(CounterHandle{slot});
    first = false;
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, slot] : registry.sorted_gauges()) {
    out << (first ? "" : ",") << json_string(name) << ":"
        << json_number(registry.value(GaugeHandle{slot}));
    first = false;
  }
  out << "},\"rates\":{";
  first = true;
  for (const auto& [name, slot] : registry.sorted_rates()) {
    const auto& est = registry.value(RateHandle{slot});
    out << (first ? "" : ",") << json_string(name) << ":{\"rate\":"
        << json_number(est.rate()) << ",\"trials\":" << est.trials() << "}";
    first = false;
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, slot] : registry.sorted_histograms()) {
    if (histogram_filter_ && !histogram_filter_(name)) continue;
    const auto& h = registry.value(HistogramHandle{slot});
    out << (first ? "" : ",") << json_string(name) << ":{\"count\":"
        << h.count() << ",\"p50\":" << json_number(h.p50())
        << ",\"p90\":" << json_number(h.p90())
        << ",\"p99\":" << json_number(h.p99()) << "}";
    first = false;
  }
  out << "}}\n";

  body_ += out.str();
  ++samples_;
}

std::string Snapshotter::stream() const {
  std::ostringstream out;
  out << "{\"schema\":\"dap.snapshots.v1\",\"scenario\":"
      << json_string(label_) << ",\"cadence_us\":" << cadence_ << "}\n";
  out << body_;
  return out.str();
}

}  // namespace dap::obs
