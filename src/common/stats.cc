#include "common/stats.h"

#include <algorithm>
#include <cmath>

namespace dap::common {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::add(double x, std::size_t weight) noexcept {
  RunningStats group;
  group.n_ = weight;
  group.mean_ = x;
  group.min_ = group.max_ = x;
  merge(group);
}

double RunningStats::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RateEstimator::add(bool success) noexcept {
  ++trials_;
  if (success) ++successes_;
}

double RateEstimator::rate() const noexcept {
  if (trials_ == 0) return 0.0;
  return static_cast<double>(successes_) / static_cast<double>(trials_);
}

std::pair<double, double> RateEstimator::wilson95() const noexcept {
  if (trials_ == 0) return {0.0, 1.0};
  const double z = 1.96;
  const double n = static_cast<double>(trials_);
  const double p = rate();
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double centre = p + z2 / (2.0 * n);
  const double margin = z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));
  return {std::max(0.0, (centre - margin) / denom),
          std::min(1.0, (centre + margin) / denom)};
}

std::vector<double> linspace(double lo, double hi, std::size_t n) {
  if (n == 0) return {};
  if (n == 1) return {lo};
  std::vector<double> out;
  out.reserve(n);
  const double step = (hi - lo) / static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(lo + step * static_cast<double>(i));
  }
  out.back() = hi;  // avoid accumulated rounding on the last point
  return out;
}

}  // namespace dap::common
