// One way to build a learner session: a pre-trained model plus the learner
// that adapts it on the stream. eval::run_experiment, scenario::run_cell,
// runtime::Fleet and the benches that drive their own streams describe the
// session they want as a SessionRecipe and call build_session(), the only
// code that maps a method name to a learner, pre-trains and warm-starts the
// buffer. Every method is therefore built under one protocol (the DC-BENCH
// requirement) and registered in one place (session.cpp).
//
// Seeds are explicit fields, not derived: each caller keeps its own lineage,
// so its outputs did not move when the builders were merged.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "deco/core/learner.h"
#include "deco/data/world.h"

namespace deco::runtime {

/// Everything build_session needs besides the world.
struct SessionRecipe {
  /// One of session_methods(): "deco", a condensation baseline (dc, dsa,
  /// dm), "upper_bound" or a replay strategy.
  std::string method = "deco";
  int64_t model_width = 16;
  int64_t model_depth = 2;

  /// The learner config of every method: the condensation methods take all
  /// of it, upper_bound and the replay strategies its core::LearnerConfig
  /// part (ipc, the model-update schedule, the cache dtype). Its lr_model,
  /// weight_decay and train_batch also drive pre-training.
  core::DecoConfig deco;
  condense::BilevelConfig bilevel;  ///< dc/dsa (dsa_strategy set by method)

  int64_t labeled_per_class = 4;  ///< labeled warm-start set size
  int64_t pretrain_epochs = 0;    ///< 0 = no pre-training

  uint64_t labeled_seed = 0;    ///< world.make_labeled_set seed
  uint64_t model_seed = 0;      ///< model init, then pre-training shuffles
  uint64_t learner_seed = 0;
  uint64_t condenser_seed = 0;  ///< condensation methods only

  /// Throws deco::Error on an unknown method (the message lists every valid
  /// name), an out-of-range shape or a `deco` that fails validate(). Cheap:
  /// call it before building a world.
  void validate() const;
};

/// Every method name a recipe accepts, in help-text order.
const std::vector<std::string>& session_methods();

/// A learner plus the model it references (learners hold it by reference):
/// keep `keepalive` alive as long as `learner`. SessionManager::add_session
/// takes both, which is the intended handoff.
struct LearnerHandle {
  std::unique_ptr<core::OnDeviceLearner> learner;
  std::shared_ptr<void> keepalive;
};

/// Builds the session `recipe` describes over `world`: a ConvNet shaped by
/// the world's spec, pre-trained on the labeled set, wrapped in the method's
/// learner with its buffer warm-started from the same labeled set.
LearnerHandle build_session(const SessionRecipe& recipe,
                            const data::ProceduralImageWorld& world);

}  // namespace deco::runtime
