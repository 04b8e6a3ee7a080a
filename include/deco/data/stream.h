// Non-i.i.d. temporal data stream simulator.
//
// Reproduces the streaming-learning protocol of the paper: data arrives in
// segments, each sample is seen once, and class identity is temporally
// correlated. The Strength of Temporal Correlation (STC) metric of Hayes et
// al. — the expected number of consecutive same-class samples before a class
// transition — is the controlling parameter (paper: STC 500 for CIFAR-100,
// 100 for ImageNet-10; iCub1/CORe50 streams are contiguous videos of one
// object instance, which we model as runs over a single instance).
#pragma once

#include <cstdint>
#include <vector>

#include "deco/data/world.h"
#include "deco/tensor/rng.h"
#include "deco/tensor/tensor.h"

namespace deco::data {

struct StreamConfig {
  int64_t stc = 100;           ///< samples per same-class run
  int64_t segment_size = 32;   ///< samples handed to the learner at once
  int64_t total_segments = 60; ///< stream length
  /// Video mode (iCub/CORe50): a run stays on one object instance in one
  /// environment with consecutive frame indices. Non-video mode (CIFAR /
  /// ImageNet proxies): samples within a run are drawn from random instances
  /// of the class (i.i.d. within class).
  bool video_mode = true;

  /// Throws deco::Error when any field is out of range (called by the
  /// TemporalStream constructor).
  void validate() const;
};

/// One segment I_t of the stream. Ground-truth labels ride along for
/// evaluation (pseudo-label accuracy, oracle baselines); the on-device
/// learner must not read them.
struct Segment {
  Tensor images;                     // [S, C, H, W]
  std::vector<int64_t> true_labels;  // [S]
};

/// Pull interface shared by the stream, the fault injector and every
/// decorator (deco/data/decorators.h): produce the next segment, return
/// false when exhausted.
class SegmentSource {
 public:
  virtual ~SegmentSource() = default;
  virtual bool next(Segment& out) = 0;
};

class TemporalStream : public SegmentSource {
 public:
  TemporalStream(const ProceduralImageWorld& world, StreamConfig config,
                 uint64_t seed);

  /// Produces the next segment; returns false when the stream is exhausted.
  bool next(Segment& out) override;

  /// Segments produced so far.
  int64_t segments_emitted() const { return segments_emitted_; }
  /// Samples produced so far.
  int64_t samples_emitted() const { return samples_emitted_; }
  const StreamConfig& config() const { return config_; }

  /// Measures the empirical STC of an emitted label sequence (mean run
  /// length). Exposed for tests and for reporting.
  static double empirical_stc(const std::vector<int64_t>& labels);

 private:
  void begin_run();

  const ProceduralImageWorld& world_;
  StreamConfig config_;
  Rng rng_;
  int64_t segments_emitted_ = 0;
  int64_t samples_emitted_ = 0;

  // Current run state.
  int64_t run_class_ = -1;
  int64_t run_instance_ = 0;
  int64_t run_environment_ = 0;
  int64_t run_remaining_ = 0;
  int64_t run_frame_ = 0;
};

}  // namespace deco::data
