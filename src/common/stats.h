#pragma once
// Streaming statistics used by the Monte-Carlo experiments and benches.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dap::common {

/// Welford's online mean/variance accumulator.
class RunningStats {
 public:
  void add(double x) noexcept;
  /// Adds `weight` copies of `x` at once, folded in with merge()'s
  /// arithmetic (a group of mean `x` and no spread). No-op for weight 0.
  void add(double x, std::size_t weight) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Unbiased sample variance; 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

  /// Merges another accumulator into this one (parallel reduction).
  void merge(const RunningStats& other) noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Bernoulli success-rate estimator with a Wilson score interval, better
/// behaved than the normal approximation at rates near 0 or 1.
class RateEstimator {
 public:
  void add(bool success) noexcept;

  [[nodiscard]] std::size_t trials() const noexcept { return trials_; }
  [[nodiscard]] std::size_t successes() const noexcept { return successes_; }
  [[nodiscard]] double rate() const noexcept;
  /// Wilson 95% interval as {lo, hi}; {0,1} with no trials.
  [[nodiscard]] std::pair<double, double> wilson95() const noexcept;

  /// Merges another estimator into this one (parallel reduction). Exact:
  /// trial/success totals are integers, so merge order never matters.
  void merge(const RateEstimator& other) noexcept {
    trials_ += other.trials_;
    successes_ += other.successes_;
  }

 private:
  std::size_t trials_ = 0;
  std::size_t successes_ = 0;
};

/// Linearly spaced sweep points: n values from lo to hi inclusive.
std::vector<double> linspace(double lo, double hi, std::size_t n);

}  // namespace dap::common
