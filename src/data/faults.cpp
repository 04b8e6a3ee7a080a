#include "deco/data/faults.h"

#include <algorithm>
#include <limits>

#include "deco/core/telemetry.h"
#include "deco/tensor/check.h"
#include "deco/tensor/ops.h"

namespace deco::data {

namespace {
void check_rate(double r, const char* name) {
  DECO_CHECK(r >= 0.0 && r <= 1.0,
             std::string("FaultConfig: ") + name + " must be in [0, 1]");
}
}  // namespace

bool FaultConfig::any() const {
  return dead_pixel_rate > 0.0 || hot_pixel_rate > 0.0 ||
         salt_pepper_rate > 0.0 || overexpose_rate > 0.0 ||
         underexpose_rate > 0.0 || drop_frame_rate > 0.0 ||
         duplicate_frame_rate > 0.0 || truncate_rate > 0.0 ||
         nan_burst_rate > 0.0 || inf_burst_rate > 0.0;
}

void FaultConfig::validate() const {
  check_rate(dead_pixel_rate, "dead_pixel_rate");
  check_rate(hot_pixel_rate, "hot_pixel_rate");
  check_rate(salt_pepper_rate, "salt_pepper_rate");
  check_rate(overexpose_rate, "overexpose_rate");
  check_rate(underexpose_rate, "underexpose_rate");
  check_rate(drop_frame_rate, "drop_frame_rate");
  check_rate(duplicate_frame_rate, "duplicate_frame_rate");
  check_rate(truncate_rate, "truncate_rate");
  check_rate(nan_burst_rate, "nan_burst_rate");
  check_rate(inf_burst_rate, "inf_burst_rate");
  DECO_CHECK(burst_size >= 1, "FaultConfig: burst_size must be >= 1");
  // Pixel-level rates must sum below 1 so the single-draw classification in
  // corrupt_segment stays a valid probability partition.
  DECO_CHECK(dead_pixel_rate + hot_pixel_rate + salt_pepper_rate <= 1.0,
             "FaultConfig: pixel fault rates must sum to <= 1");
}

int64_t FaultLog::total_faults() const {
  return dead_pixels + hot_pixels + salt_pepper_pixels + frames_overexposed +
         frames_underexposed + frames_dropped + frames_duplicated +
         segments_truncated + nan_bursts + inf_bursts;
}

FaultyStream::FaultyStream(SegmentSource& inner, FaultConfig config,
                           uint64_t seed)
    : inner_(inner), config_(config), rng_(seed) {
  config_.validate();
}

bool FaultyStream::next(Segment& out) {
  if (!inner_.next(out)) return false;
  const int64_t faults_before = log_.total_faults();
  if (config_.any()) corrupt_segment(out);
  ++log_.segments_emitted;
  log_.frames_emitted += out.images.dim(0);
  {
    namespace telem = core::telemetry;
    static telem::Counter& c_segments = telem::counter("faults/segments");
    static telem::Counter& c_injected = telem::counter("faults/injected");
    c_segments.add(1);
    c_injected.add(log_.total_faults() - faults_before);
  }
  return true;
}

void FaultyStream::corrupt_segment(Segment& seg) {
  const int64_t s0 = seg.images.dim(0);
  const int64_t per = seg.images.numel() / std::max<int64_t>(1, s0);

  // 1. Structural faults first: truncation, then per-frame drops. At least
  //    one frame always survives so downstream code never sees an empty
  //    segment (a real capture pipeline would simply retry).
  int64_t keep_len = s0;
  if (config_.truncate_rate > 0.0 && rng_.bernoulli(config_.truncate_rate) &&
      s0 > 1) {
    keep_len = 1 + rng_.uniform_int(s0 - 1);  // uniform in [1, s0-1]
    ++log_.segments_truncated;
  }
  std::vector<int64_t> keep;
  keep.reserve(static_cast<size_t>(keep_len));
  for (int64_t i = 0; i < keep_len; ++i) {
    if (config_.drop_frame_rate > 0.0 &&
        rng_.bernoulli(config_.drop_frame_rate)) {
      ++log_.frames_dropped;
      continue;
    }
    keep.push_back(i);
  }
  if (keep.empty()) {
    keep.push_back(0);
    --log_.frames_dropped;  // the drop was suppressed, not applied
  }
  if (static_cast<int64_t>(keep.size()) != s0) {
    seg.images = take(seg.images, keep);
    std::vector<int64_t> labels;
    labels.reserve(keep.size());
    for (int64_t i : keep)
      labels.push_back(seg.true_labels[static_cast<size_t>(i)]);
    seg.true_labels = std::move(labels);
  }
  const int64_t s = seg.images.dim(0);
  float* px = seg.images.data();

  // 2. Duplicated frames: the capture pipeline re-delivers the previous frame
  //    (label rides along — it really is that frame).
  for (int64_t i = 1; i < s; ++i) {
    if (config_.duplicate_frame_rate > 0.0 &&
        rng_.bernoulli(config_.duplicate_frame_rate)) {
      std::copy(px + (i - 1) * per, px + i * per, px + i * per);
      seg.true_labels[static_cast<size_t>(i)] =
          seg.true_labels[static_cast<size_t>(i - 1)];
      ++log_.frames_duplicated;
    }
  }

  // 3. Per-frame value faults.
  const bool pixel_faults = config_.dead_pixel_rate > 0.0 ||
                            config_.hot_pixel_rate > 0.0 ||
                            config_.salt_pepper_rate > 0.0;
  for (int64_t i = 0; i < s; ++i) {
    float* f = px + i * per;
    if (config_.overexpose_rate > 0.0 &&
        rng_.bernoulli(config_.overexpose_rate)) {
      for (int64_t j = 0; j < per; ++j)
        f[j] = std::clamp(f[j] * 3.0f + 0.3f, 0.0f, 1.0f);
      ++log_.frames_overexposed;
    } else if (config_.underexpose_rate > 0.0 &&
               rng_.bernoulli(config_.underexpose_rate)) {
      for (int64_t j = 0; j < per; ++j) f[j] *= 0.1f;
      ++log_.frames_underexposed;
    }
    if (pixel_faults) {
      // One uniform draw per pixel, classified against the cumulative rates
      // (validate() guarantees they partition [0, 1]).
      const double t_dead = config_.dead_pixel_rate;
      const double t_hot = t_dead + config_.hot_pixel_rate;
      const double t_sp = t_hot + config_.salt_pepper_rate;
      for (int64_t j = 0; j < per; ++j) {
        const double u = rng_.uniform();
        if (u < t_dead) {
          f[j] = 0.0f;
          ++log_.dead_pixels;
        } else if (u < t_hot) {
          f[j] = 1.0f;
          ++log_.hot_pixels;
        } else if (u < t_sp) {
          f[j] = rng_.bernoulli(0.5) ? 1.0f : 0.0f;
          ++log_.salt_pepper_pixels;
        }
      }
    }
    if (config_.nan_burst_rate > 0.0 &&
        rng_.bernoulli(config_.nan_burst_rate)) {
      const int64_t n = std::min(config_.burst_size, per);
      const int64_t start = rng_.uniform_int(per - n + 1);
      for (int64_t j = 0; j < n; ++j)
        f[start + j] = std::numeric_limits<float>::quiet_NaN();
      ++log_.nan_bursts;
    }
    if (config_.inf_burst_rate > 0.0 &&
        rng_.bernoulli(config_.inf_burst_rate)) {
      const int64_t n = std::min(config_.burst_size, per);
      const int64_t start = rng_.uniform_int(per - n + 1);
      for (int64_t j = 0; j < n; ++j)
        f[start + j] = (j % 2 == 0 ? 1.0f : -1.0f) *
                       std::numeric_limits<float>::infinity();
      ++log_.inf_bursts;
    }
  }
}

}  // namespace deco::data
