// Sensor/pipeline fault injection for robustness experiments.
//
// A field deployment never sees the paper's clean segment-in/segment-out
// protocol: cameras develop dead and hot pixels, exposure control glitches,
// frames are dropped or duplicated by the capture pipeline, transfers get
// truncated, and upstream ISP bugs can hand the learner NaN/Inf pixels.
// FaultyStream decorates a TemporalStream (or any SegmentSource) with
// seeded, rate-controlled injections of all of these so the robustness of
// the learning stack (see deco/core/guard.h) can be measured —
// bench/fault_tolerance.cpp sweeps the rates and reports accuracy
// degradation with guards on vs. off.
//
// Faults are drawn from the decorator's own Rng: enabling/disabling injection
// never perturbs the underlying stream's random sequence, so faulted and
// clean runs stay paired sample-for-sample.
#pragma once

#include <cstdint>

#include "deco/data/stream.h"
#include "deco/tensor/rng.h"

namespace deco::data {

/// Per-fault injection rates. Pixel-level rates are per pixel; frame-level
/// rates are per frame; truncation is per segment. All rates are
/// probabilities in [0, 1]; the default config injects nothing.
struct FaultConfig {
  double dead_pixel_rate = 0.0;       ///< pixel sticks at 0
  double hot_pixel_rate = 0.0;        ///< pixel sticks at 1
  double salt_pepper_rate = 0.0;      ///< pixel flips to 0 or 1 at random
  double overexpose_rate = 0.0;       ///< frame gain glitch toward white
  double underexpose_rate = 0.0;      ///< frame gain glitch toward black
  double drop_frame_rate = 0.0;       ///< frame removed from the segment
  double duplicate_frame_rate = 0.0;  ///< frame replaced by its predecessor
  double truncate_rate = 0.0;         ///< segment cut to a random prefix
  double nan_burst_rate = 0.0;        ///< contiguous NaN pixel run per frame
  double inf_burst_rate = 0.0;        ///< contiguous ±Inf pixel run per frame
  int64_t burst_size = 16;            ///< pixels per NaN/Inf burst

  /// True when any rate is positive (i.e. injection would do something).
  bool any() const;
  /// Throws deco::Error unless every rate is in [0, 1] and burst_size >= 1.
  void validate() const;
};

/// Counters of everything a FaultyStream injected so far. Structural counts
/// (drops, truncations) are what actually happened, not what was rolled —
/// e.g. a drop that would empty a segment is suppressed and not counted.
struct FaultLog {
  int64_t dead_pixels = 0;
  int64_t hot_pixels = 0;
  int64_t salt_pepper_pixels = 0;
  int64_t frames_overexposed = 0;
  int64_t frames_underexposed = 0;
  int64_t frames_dropped = 0;
  int64_t frames_duplicated = 0;
  int64_t segments_truncated = 0;
  int64_t nan_bursts = 0;
  int64_t inf_bursts = 0;
  int64_t segments_emitted = 0;  ///< segments that passed through
  int64_t frames_emitted = 0;    ///< frames that survived drops/truncation

  /// Sum of all injection counters (not the emitted totals).
  int64_t total_faults() const;
};

/// Decorator over any SegmentSource injecting FaultConfig's failure modes.
/// True labels are kept aligned with the (possibly restructured) frames so
/// evaluation code keeps working. A segment always retains at least one
/// frame.
class FaultyStream : public SegmentSource {
 public:
  /// `inner` is borrowed and must outlive the decorator.
  FaultyStream(SegmentSource& inner, FaultConfig config, uint64_t seed);

  /// Pulls the next segment from the inner stream and corrupts it in place.
  bool next(Segment& out) override;

  const FaultLog& log() const { return log_; }
  const FaultConfig& config() const { return config_; }

 private:
  void corrupt_segment(Segment& seg);

  SegmentSource& inner_;
  FaultConfig config_;
  Rng rng_;
  FaultLog log_;
};

}  // namespace deco::data
