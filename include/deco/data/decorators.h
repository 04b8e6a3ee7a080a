// Composable stream decorators for the scenario catalog.
//
// TemporalStream (and its FaultyStream wrapper) model one fixed deployment
// condition. Real fleets see more: classes that appear for the first time
// mid-deployment (class-incremental arrival), sensors whose appearance
// distribution shifts abruptly or creeps over weeks (domain drift), and
// annotation pipelines that mislabel a fraction of the ground truth (label
// noise). Each condition is a decorator with the same pull interface as the
// streams it wraps, so decorators stack in any order over any source:
//
//   TemporalStream -> FaultyStream -> DriftStream -> LabelNoiseStream -> ...
//
// Determinism contract (the scenario harness depends on it): every decorator
// draws exclusively from its own seeded Rng and transforms segments as a pure
// function of (inner segment bytes, decorator seed, segment index). Same seed
// therefore means memcmp-identical output bytes; enabling a decorator never
// perturbs the inner stream's random sequence, so decorated and clean runs
// stay paired sample-for-sample (the same common-random-numbers discipline
// FaultyStream established). tests/scenario_test.cpp audits both properties.
#pragma once

#include <cstdint>
#include <memory>

#include "deco/data/stream.h"
#include "deco/data/world.h"
#include "deco/tensor/rng.h"

namespace deco::data {

// ---- domain drift -----------------------------------------------------------

/// Appearance drift applied in pixel space: a per-channel gain/bias shift
/// whose direction is drawn once from the decorator seed and whose magnitude
/// follows the configured time course. "abrupt" jumps from 0 to `severity` at
/// `onset_segment`; "gradual" ramps linearly from `onset_segment` over
/// `ramp_segments` segments and then holds. Labels are untouched — drift is
/// covariate shift, not concept shift.
struct DriftConfig {
  std::string mode = "none";  ///< "none" | "abrupt" | "gradual"
  int64_t onset_segment = 0;  ///< first segment affected
  int64_t ramp_segments = 8;  ///< gradual: segments from onset to full severity
  float severity = 0.5f;      ///< peak shift magnitude in [0, 1]

  bool active() const { return mode != "none" && severity > 0.0f; }
  /// Throws deco::Error on an unknown mode or out-of-range magnitude.
  void validate() const;
};

class DriftStream : public SegmentSource {
 public:
  /// `inner` is borrowed and must outlive the decorator.
  DriftStream(SegmentSource& inner, DriftConfig config, uint64_t seed);

  bool next(Segment& out) override;

  /// Severity in effect for segment index i (0-based); a pure function of
  /// the config, exposed so tests can pin the time course.
  float severity_at(int64_t segment_index) const;

  int64_t segments_drifted() const { return segments_drifted_; }
  const DriftConfig& config() const { return config_; }

 private:
  SegmentSource& inner_;
  DriftConfig config_;
  // Drift direction, drawn once at construction from the seed.
  float bias_[3];
  float gain_;
  int64_t segments_emitted_ = 0;
  int64_t segments_drifted_ = 0;
};

// ---- label noise ------------------------------------------------------------

/// Flips each ground-truth label to a uniformly random *different* class with
/// probability `flip_rate`. Images are never touched: this models annotation
/// noise, which reaches exactly the label-consuming paths (the oracle
/// upper-bound learner and every true-label evaluation metric) while the
/// unlabeled learners see an unchanged stream.
struct LabelNoiseConfig {
  double flip_rate = 0.0;  ///< per-sample flip probability in [0, 1]

  bool active() const { return flip_rate > 0.0; }
  void validate() const;
};

class LabelNoiseStream : public SegmentSource {
 public:
  /// `num_classes` bounds the replacement draw; `inner` is borrowed.
  LabelNoiseStream(SegmentSource& inner, LabelNoiseConfig config,
                   int64_t num_classes, uint64_t seed);

  bool next(Segment& out) override;

  int64_t labels_flipped() const { return labels_flipped_; }
  const LabelNoiseConfig& config() const { return config_; }

 private:
  SegmentSource& inner_;
  LabelNoiseConfig config_;
  int64_t num_classes_;
  Rng rng_;
  int64_t labels_flipped_ = 0;
};

// ---- class-incremental arrival ----------------------------------------------

/// Restricts the stream to a growing prefix of the class set: `initial`
/// classes are available at segment 0 and `per_phase` more arrive every
/// `segments_per_phase` segments. Runs of a not-yet-arrived class are remapped
/// (whole run, so temporal correlation survives) onto an arrived class and
/// re-rendered from the world, with instance/environment/starting-frame drawn
/// from the decorator's own Rng at each run boundary.
struct ClassIncrementalConfig {
  int64_t initial = 2;             ///< classes available from segment 0
  int64_t per_phase = 2;           ///< classes added per phase
  int64_t segments_per_phase = 8;  ///< phase length in segments

  void validate() const;
  /// Number of arrived classes at 0-based segment index i (pure function).
  int64_t arrived_at(int64_t segment_index, int64_t num_classes) const;
};

class ClassIncrementalStream : public SegmentSource {
 public:
  /// `world` renders the remapped runs; both references are borrowed.
  ClassIncrementalStream(const ProceduralImageWorld& world,
                         SegmentSource& inner, ClassIncrementalConfig config,
                         uint64_t seed);

  bool next(Segment& out) override;

  /// Samples re-rendered because their class had not arrived yet.
  int64_t samples_remapped() const { return samples_remapped_; }
  const ClassIncrementalConfig& config() const { return config_; }

 private:
  const ProceduralImageWorld& world_;
  SegmentSource& inner_;
  ClassIncrementalConfig config_;
  Rng rng_;
  int64_t segments_emitted_ = 0;
  int64_t samples_remapped_ = 0;

  // Current remapped-run state: runs are detected as maximal stretches of one
  // inner label (crossing segment boundaries), so one mapping covers a run.
  int64_t run_inner_class_ = -1;
  int64_t run_mapped_class_ = -1;
  int64_t run_instance_ = 0;
  int64_t run_environment_ = 0;
  int64_t run_frame_ = 0;
};

}  // namespace deco::data
