// End-to-end experiment runner.
//
// Encapsulates the full evaluation protocol of Section IV-A: build a world,
// pre-train the model on a small labeled subset, replay an STC-controlled
// unlabeled stream through a learner (DECO, a replay baseline, a condensation
// baseline, or the unlimited upper bound), and measure accuracy on a held-out
// test set — optionally at fixed intervals for learning curves (Fig. 3).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "deco/baselines/replay.h"
#include "deco/core/learner.h"
#include "deco/data/faults.h"
#include "deco/data/stream.h"
#include "deco/data/world.h"
#include "deco/runtime/session.h"

namespace deco::eval {

/// One experiment. `method` picks the learner: any of
/// runtime::session_methods() — "deco", the condensation baselines inside
/// the DECO pipeline (dc, dsa, dm), a replay strategy or the oracle
/// "upper_bound".
struct RunConfig {
  std::string method = "deco";
  data::DatasetSpec spec;
  data::StreamConfig stream;
  int64_t ipc = 10;

  core::DecoConfig deco;            ///< used by deco/dc/dsa/dm
  condense::BilevelConfig bilevel;  ///< used by dc/dsa (dsa_strategy is set
                                    ///< automatically for method "dsa")
  baselines::BaselineConfig baseline;

  int64_t pretrain_per_class = 6;   ///< labeled warm-start set size
  int64_t pretrain_epochs = 30;
  int64_t test_per_class = 40;
  int64_t model_width = 32;
  int64_t model_depth = 3;

  /// Evaluate on the test set every this many segments (0 = final only).
  int64_t eval_every_segments = 0;

  /// Sensor-fault injection: when any rate is non-zero the stream is wrapped
  /// in a FaultyStream seeded from `seed`, so a faulty run is sample-paired
  /// with its clean counterpart (common random numbers).
  data::FaultConfig faults;

  uint64_t seed = 1;
};

struct CurvePoint {
  int64_t samples_seen = 0;
  float accuracy = 0.0f;
};

struct RunResult {
  float pretrain_accuracy = 0.0f;
  float final_accuracy = 0.0f;
  std::vector<CurvePoint> curve;
  double condense_seconds = 0.0;  ///< selection/condensation time (Table II)
  double total_seconds = 0.0;
  double pseudo_label_accuracy = 0.0;  ///< vs ground truth, over the stream
  double retention_rate = 0.0;         ///< fraction of samples kept by voting

  // Fault-tolerance accounting (0 unless faults/guards were active).
  data::FaultLog faults;               ///< what the injector actually did
  int64_t frames_quarantined = 0;      ///< non-finite frames excluded by guards
  int64_t segments_skipped = 0;        ///< segments with no usable frame
  int64_t steps_rolled_back = 0;       ///< diverged condensation steps undone
  int64_t batches_skipped = 0;         ///< model-update batches dropped
  int64_t grads_clipped = 0;           ///< gradient-norm clips
};

/// Runs one experiment. `on_finish`, when set, is called with the learner
/// after the final evaluation (deco_cli writes its artifacts from it).
RunResult run_experiment(
    const RunConfig& config,
    const std::function<void(core::OnDeviceLearner&)>& on_finish = {});

/// The world and the session recipe run_experiment builds for `config`:
/// benches that drive the stream themselves use them to get the same
/// pre-trained session.
data::ProceduralImageWorld make_world(const RunConfig& config);
runtime::SessionRecipe session_recipe(const RunConfig& config);

/// Convenience: runs `seeds` seeds (config.seed, +1, …) and collects final
/// accuracies.
std::vector<RunResult> run_seeds(RunConfig config, int64_t seeds);

}  // namespace deco::eval
