// Sample statistics for the repo benchmark.
//
// Kept free of library types so perfbench_selftest can check every rule the
// reported numbers rely on: the tail-sample floor on percentiles, the
// plain/retrain split by the learner's β schedule, and the open-loop latency
// decomposition (due → start → end).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// A tail percentile is only reported when at least this many samples lie
/// strictly beyond it; fewer and one scheduler hiccup moves the figure.
inline constexpr int64_t kMinTailSamples = 10;

inline double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1). Refused (nullopt) when fewer than
/// kMinTailSamples samples lie beyond the chosen rank.
inline std::optional<double> tail_percentile(std::vector<double> v, double q) {
  const int64_t n = static_cast<int64_t>(v.size());
  if (n == 0 || q <= 0.0 || q >= 1.0) return std::nullopt;
  const int64_t rank = static_cast<int64_t>(std::ceil(q * static_cast<double>(n)));
  const int64_t idx = std::clamp<int64_t>(rank - 1, 0, n - 1);
  if (n - 1 - idx < kMinTailSamples) return std::nullopt;
  std::nth_element(v.begin(), v.begin() + idx, v.end());
  return v[static_cast<size_t>(idx)];
}

/// Smallest sample count for which tail_percentile(·, q) is accepted.
inline int64_t min_samples_for(double q) {
  for (int64_t n = 1;; ++n) {
    const int64_t idx = static_cast<int64_t>(std::ceil(q * static_cast<double>(n))) - 1;
    if (n - 1 - idx >= kMinTailSamples) return n;
  }
}

/// DecoLearner retrains inside observe_segment when segments_seen % β == 0,
/// so the k-th segment (1-based) of a session is a retrain segment exactly
/// when k is a multiple of β. Known from outside the learner.
inline bool is_retrain_segment(int64_t k_one_based, int64_t beta) {
  return beta > 0 && k_one_based % beta == 0;
}

/// One segment as seen from outside the learner, in seconds on one clock.
/// `due` is when the segment was scheduled (open loop) or handed over
/// (closed loop, where due == start).
struct SegmentTiming {
  double due = 0.0;
  double start = 0.0;  ///< observe_segment entered
  double end = 0.0;    ///< observe_segment returned
  bool retrain = false;

  double queue_wait() const { return start - due; }
  double service() const { return end - start; }
  double latency() const { return end - due; }
};

/// Pairs a session's k-th due time with its k-th observe_segment call (the
/// runtime processes each session in FIFO order) and tags retrain segments.
/// Returns an empty vector when the counts differ: a lost or extra segment.
inline std::vector<SegmentTiming> pair_timings(
    const std::vector<double>& due, const std::vector<double>& starts,
    const std::vector<double>& ends, int64_t beta) {
  std::vector<SegmentTiming> out;
  if (due.size() != starts.size() || starts.size() != ends.size()) return out;
  out.reserve(due.size());
  for (size_t i = 0; i < due.size(); ++i)
    out.push_back({due[i], starts[i], ends[i],
                   is_retrain_segment(static_cast<int64_t>(i) + 1, beta)});
  return out;
}

struct SplitLatencies {
  std::vector<double> plain;    ///< latency of non-retrain segments
  std::vector<double> retrain;  ///< latency of β-retrain segments
};

inline SplitLatencies split_by_beta(const std::vector<SegmentTiming>& t) {
  SplitLatencies s;
  for (const SegmentTiming& x : t)
    (x.retrain ? s.retrain : s.plain).push_back(x.latency());
  return s;
}

}  // namespace perfbench
