// Statistical utilities for experiment analysis.
//
// The effects the paper sweeps (e.g. Fig. 4b's ~1-point α effect) are small
// relative to seed-to-seed variance at reduced scale, so the bench harness
// needs more than mean ± std: numerically stable running moments (Welford)
// and *paired* comparisons that exploit the common-random-numbers design of
// the sweeps (same seeds across settings).
#pragma once

#include <cstdint>
#include <vector>

namespace deco::eval {

/// Numerically stable running mean/variance (Welford's algorithm).
class RunningStats {
 public:
  void add(double value);
  int64_t count() const { return n_; }
  double mean() const { return mean_; }
  /// Sample variance (n−1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  /// Standard error of the mean.
  double sem() const;

 private:
  int64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Paired comparison of two equal-length result vectors (common seeds):
/// statistics of the per-seed differences b[i] − a[i].
struct PairedComparison {
  double mean_diff = 0.0;     ///< mean of b − a
  double stddev_diff = 0.0;   ///< sample std of the differences
  double sem_diff = 0.0;
  int64_t wins = 0;           ///< #i with b[i] > a[i]
  int64_t losses = 0;         ///< #i with b[i] < a[i]
  int64_t ties = 0;
  /// mean_diff / sem_diff — a t-like signal-to-noise score (|t| ≳ 2 suggests
  /// a real effect at typical seed counts).
  double t_statistic = 0.0;
};
PairedComparison paired_compare(const std::vector<double>& a,
                                const std::vector<double>& b);

/// Median of a vector (by copy; empty → 0).
double median(std::vector<double> values);

}  // namespace deco::eval
