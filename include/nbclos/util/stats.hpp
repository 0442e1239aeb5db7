/// \file stats.hpp
/// \brief Streaming statistics used by the experiment harnesses:
///        Welford running moments, min/max tracking, normal-approximation
///        confidence intervals, and a fixed-bin histogram.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace nbclos {

/// Numerically-stable streaming mean/variance accumulator (Welford).
class RunningStats {
 public:
  void add(double x) noexcept;

  /// Merge another accumulator (parallel reduction; Chan et al. update).
  void merge(const RunningStats& other) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Sample variance (n-1 denominator); 0 when fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(count_); }

  /// Half-width of the ~95% normal-approximation confidence interval.
  [[nodiscard]] double ci95_half_width() const noexcept;

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Mean of integer samples from their exact integer sum and count: one
/// rounding at the end, so any split of the sum across shards or phases
/// gives the same bits.  0 when `count` is 0.
[[nodiscard]] inline double exact_mean(std::uint64_t sum,
                                       std::uint64_t count) noexcept {
  return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                   : 0.0;
}

/// Fixed-width histogram over [lo, hi); samples outside the range land in
/// saturating edge bins.  Used for latency distributions in the simulator.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x) noexcept;

  [[nodiscard]] std::size_t bin_count() const noexcept { return counts_.size(); }
  [[nodiscard]] std::uint64_t bin(std::size_t i) const { return counts_.at(i); }
  [[nodiscard]] double bin_lo(std::size_t i) const noexcept;
  [[nodiscard]] double bin_hi(std::size_t i) const noexcept;
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

  /// Value below which the given fraction of samples fall (linear
  /// interpolation within the containing bin).  \pre 0 <= q <= 1.
  [[nodiscard]] double quantile(double q) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Streaming quantile estimator for non-negative integer-valued samples
/// (e.g. packet latencies in cycles) with a bounded value range known up
/// front.  Memory is O(min(max_value, max_bins)) regardless of sample
/// count, so the simulator can track p50/p99/p999 over arbitrarily long
/// runs without buffering every sample for an end-of-run sort.
///
/// Quantiles follow the sort-rank convention `sorted[floor(q * (n - 1))]`
/// at bucket resolution: the returned value is the lower edge of the
/// bucket containing that rank, so the error is strictly less than one
/// `bucket_width()`.  When `max_value < max_bins` every bucket holds a
/// single integer and quantiles are exact.
class QuantileHistogram {
 public:
  /// \param max_value largest sample that keeps full resolution; larger
  ///        samples saturate into the top bucket.
  /// \param max_bins  memory bound; bucket width is the smallest integer
  ///        covering [0, max_value] within this many buckets.
  explicit QuantileHistogram(std::uint64_t max_value,
                             std::size_t max_bins = 4096);

  void add(std::uint64_t value) noexcept;

  /// Record `weight` occurrences of `value` in one call (used when a
  /// worker flushes a locally-accumulated count; equivalent to calling
  /// add(value) `weight` times).  The running count saturates at
  /// UINT64_MAX instead of wrapping.
  void add(std::uint64_t value, std::uint64_t weight) noexcept;

  /// Merge another histogram (parallel reduction).  \pre identical
  /// geometry (same max_value / max_bins).
  void merge(const QuantileHistogram& other);

  [[nodiscard]] std::uint64_t count() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t bucket_width() const noexcept { return width_; }
  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return counts_.size();
  }

  /// Lower edge of the bucket holding rank floor(q * (count - 1));
  /// 0 when empty.  \pre 0 <= q <= 1.
  [[nodiscard]] double quantile(double q) const;

 private:
  std::uint64_t width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Least-squares fit of y = a * x^b through points (x_i, y_i) in log space.
/// Returns {a, b}.  Used to measure the empirical exponent in Theorem 5.
struct PowerFit {
  double coefficient;  ///< a
  double exponent;     ///< b
  double r_squared;    ///< goodness of fit in log space
};

[[nodiscard]] PowerFit fit_power_law(const std::vector<double>& x,
                                     const std::vector<double>& y);

}  // namespace nbclos
