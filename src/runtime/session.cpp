#include "deco/runtime/session.h"

#include <utility>

#include "deco/tensor/check.h"

namespace deco::runtime {

namespace {

// Registering a method: add its name to session_methods() and, for a
// condensation method, a branch to condenser_for(). Nothing else in the
// library maps method names to learners.

/// The condenser a condensation method runs inside DecoLearner; nullptr for
/// upper_bound and the replay strategies.
std::unique_ptr<condense::Condenser> condenser_for(
    const SessionRecipe& recipe, const nn::ConvNetConfig& mc) {
  const std::string& m = recipe.method;
  const uint64_t seed = recipe.condenser_seed;
  if (m == "deco")
    return std::make_unique<condense::DecoCondenser>(
        mc, recipe.deco.condenser, seed);
  if (m == "dc" || m == "dsa") {
    condense::BilevelConfig bc = recipe.bilevel;
    bc.dsa_strategy = m == "dsa" ? "flip_shift_scale_rotate_color_cutout" : "";
    return std::make_unique<condense::BilevelCondenser>(mc, bc, seed);
  }
  if (m == "dm")
    return std::make_unique<condense::DmCondenser>(mc, condense::DmConfig{},
                                                   seed);
  return nullptr;
}

}  // namespace

const std::vector<std::string>& session_methods() {
  static const std::vector<std::string> names = {
      "deco",   "dc",   "dsa",          "dm",      "upper_bound",
      "random", "fifo", "selective_bp", "kcenter", "gss"};
  return names;
}

void SessionRecipe::validate() const {
  bool known = false;
  std::string valid;
  for (const std::string& name : session_methods()) {
    known = known || name == method;
    valid += (valid.empty() ? "" : ", ") + name;
  }
  DECO_CHECK(known, "unknown method '" + method + "' (valid: " + valid + ")");
  DECO_CHECK(ipc >= 1, "session: ipc must be >= 1");
  DECO_CHECK(model_width >= 1 && model_depth >= 1,
             "session: model shape must be >= 1");
  DECO_CHECK(labeled_per_class >= 1 && pretrain_epochs >= 0,
             "session: pre-training knobs out of range");
}

LearnerHandle build_session(const SessionRecipe& recipe,
                            const data::ProceduralImageWorld& world) {
  recipe.validate();
  const data::DatasetSpec& ds = world.spec();
  nn::ConvNetConfig mc;
  mc.in_channels = ds.channels;
  mc.image_h = ds.height;
  mc.image_w = ds.width;
  mc.num_classes = ds.num_classes;
  mc.width = recipe.model_width;
  mc.depth = recipe.model_depth;

  const data::Dataset labeled =
      world.make_labeled_set(recipe.labeled_per_class, recipe.labeled_seed);
  Rng model_rng(recipe.model_seed);
  auto model = std::make_shared<nn::ConvNet>(mc, model_rng);
  if (recipe.pretrain_epochs > 0) {
    std::vector<int64_t> all(static_cast<size_t>(labeled.size()));
    for (int64_t k = 0; k < labeled.size(); ++k)
      all[static_cast<size_t>(k)] = k;
    core::train_classifier(*model, labeled.batch(all), labeled.labels(),
                           recipe.pretrain_epochs, recipe.deco.lr_model,
                           recipe.deco.weight_decay, recipe.deco.train_batch,
                           model_rng);
  }

  LearnerHandle h;
  if (auto condenser = condenser_for(recipe, mc)) {
    core::DecoConfig dc = recipe.deco;
    dc.ipc = recipe.ipc;
    auto deco = std::make_unique<core::DecoLearner>(
        *model, dc, recipe.learner_seed, std::move(condenser));
    deco->init_buffer_from(labeled);
    h.learner = std::move(deco);
  } else {
    baselines::BaselineConfig bc = recipe.baseline;
    bc.ipc = recipe.ipc;
    if (recipe.method == "upper_bound") {
      auto ub = std::make_unique<baselines::UnlimitedLearner>(
          *model, bc, recipe.learner_seed);
      ub->init_buffer_from(labeled);
      h.learner = std::move(ub);
    } else {
      auto bl = std::make_unique<baselines::BaselineLearner>(
          *model, baselines::strategy_from_name(recipe.method), bc,
          recipe.learner_seed);
      bl->init_buffer_from(labeled);
      h.learner = std::move(bl);
    }
  }
  h.keepalive = std::move(model);
  return h;
}

}  // namespace deco::runtime
