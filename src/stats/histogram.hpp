// histogram.hpp — fixed-resolution log-linear histogram with quantiles.
//
// Packet delays span several orders of magnitude across the arrival-rate
// sweeps, so a log-spaced histogram gives useful quantile resolution
// everywhere without per-sample storage.
#pragma once

#include <cstdint>
#include <vector>

namespace affinity {

/// Histogram over (0, +inf) with logarithmically spaced bucket boundaries:
/// `buckets_per_decade` buckets per factor of 10, covering [min_value,
/// min_value * 10^decades). Values below the range land in an underflow
/// bucket, values above in an overflow bucket. Quantiles are estimated by
/// linear interpolation within a bucket.
class Histogram {
 public:
  Histogram(double min_value, int decades, int buckets_per_decade);

  void add(double x) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return total_; }

  /// Quantile q in [0, 1]; returns 0 for an empty histogram. q=1 returns an
  /// upper bound of the max's bucket.
  [[nodiscard]] double quantile(double q) const noexcept;

  [[nodiscard]] double mean() const noexcept { return total_ ? sum_ / static_cast<double>(total_) : 0.0; }

  /// Number of samples that fell above the histogram range (diagnostic; a
  /// large overflow count means the range should be widened).
  [[nodiscard]] std::uint64_t overflow() const noexcept { return overflow_; }

  /// Merges another histogram with identical bucket configuration (used to
  /// combine per-worker histograms; aborts on mismatched configuration).
  void merge(const Histogram& other);

  // Geometry and raw counts, for publishing into a histogram of the same
  // geometry elsewhere (obs::LatencyHisto::merge).
  [[nodiscard]] double minValue() const noexcept { return min_value_; }
  [[nodiscard]] double logStep() const noexcept { return log_step_; }
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const noexcept { return buckets_; }
  [[nodiscard]] std::uint64_t underflow() const noexcept { return underflow_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

 private:
  [[nodiscard]] double bucketLow(std::size_t i) const noexcept;

  double min_value_;
  double log_min_;
  double inv_log_step_;
  double log_step_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
  double sum_ = 0.0;
};

}  // namespace affinity
