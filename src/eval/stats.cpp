#include "deco/eval/stats.h"

#include <algorithm>
#include <cmath>

#include "deco/tensor/check.h"

namespace deco::eval {

void RunningStats::add(double value) {
  if (n_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++n_;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (value - mean_);
}

double RunningStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::sem() const {
  return n_ > 0 ? stddev() / std::sqrt(static_cast<double>(n_)) : 0.0;
}

PairedComparison paired_compare(const std::vector<double>& a,
                                const std::vector<double>& b) {
  DECO_CHECK(a.size() == b.size() && !a.empty(),
             "paired_compare: vectors must be equal-length and non-empty");
  PairedComparison out;
  RunningStats diff;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = b[i] - a[i];
    diff.add(d);
    if (d > 0) ++out.wins;
    else if (d < 0) ++out.losses;
    else ++out.ties;
  }
  out.mean_diff = diff.mean();
  out.stddev_diff = diff.stddev();
  out.sem_diff = diff.sem();
  out.t_statistic = out.sem_diff > 1e-12 ? out.mean_diff / out.sem_diff : 0.0;
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  double m = values[mid];
  if (values.size() % 2 == 0) {
    const double lower =
        *std::max_element(values.begin(), values.begin() + mid);
    m = 0.5 * (m + lower);
  }
  return m;
}

}  // namespace deco::eval
