#include "deco/eval/runner.h"

#include <chrono>
#include <memory>

#include "deco/core/thread_pool.h"
#include "deco/eval/metrics.h"

namespace deco::eval {

namespace {
double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

runtime::SessionRecipe session_recipe(const RunConfig& config) {
  runtime::SessionRecipe r;
  r.method = config.method;
  r.model_width = config.model_width;
  r.model_depth = config.model_depth;
  r.ipc = config.ipc;
  r.deco = config.deco;
  r.bilevel = config.bilevel;
  r.baseline = config.baseline;
  r.labeled_per_class = config.pretrain_per_class;
  r.pretrain_epochs = config.pretrain_epochs;
  r.labeled_seed = config.seed + 1;
  r.model_seed = config.seed * 0x9E37 + 0xC0FFEE;
  r.learner_seed = config.seed + 3;
  r.condenser_seed = config.seed ^ 0xD3C0DE;
  return r;
}

data::ProceduralImageWorld make_world(const RunConfig& config) {
  return data::ProceduralImageWorld(config.spec, config.seed * 7919 + 17);
}

RunResult run_experiment(
    const RunConfig& config,
    const std::function<void(core::OnDeviceLearner&)>& on_finish) {
  const double t_start = now_seconds();
  const runtime::SessionRecipe recipe = session_recipe(config);
  recipe.validate();

  const data::ProceduralImageWorld world = make_world(config);
  data::Dataset test = world.make_test_set(config.test_per_class, config.seed + 2);
  runtime::LearnerHandle session = runtime::build_session(recipe, world);
  core::OnDeviceLearner& learner = *session.learner;

  RunResult result;
  result.pretrain_accuracy = accuracy(learner.model(), test);

  // Stream replay, optionally through the sensor-fault injector.
  data::TemporalStream stream(world, config.stream, config.seed + 4);
  std::unique_ptr<data::FaultyStream> faulty;
  if (config.faults.any())
    faulty = std::make_unique<data::FaultyStream>(stream, config.faults,
                                                  config.seed ^ 0xFA017ull);
  auto next_segment = [&](data::Segment& s) {
    return faulty != nullptr ? faulty->next(s) : stream.next(s);
  };
  data::Segment seg;
  int64_t pseudo_correct = 0, pseudo_total = 0, retained_total = 0;
  // The upper bound is an oracle: unlimited memory AND ground-truth labels
  // (the paper defines it as the accuracy achievable with unlimited buffer).
  // Only it receives the labels; every other learner stays unlabeled.
  const bool oracle = config.method == "upper_bound";
  while (next_segment(seg)) {
    core::SegmentReport rep =
        oracle ? learner.observe_labeled_segment(seg.images, seg.true_labels)
               : learner.observe_segment(seg.images);

    for (size_t i = 0; i < rep.pseudo_labels.size(); ++i) {
      if (rep.pseudo_labels[i] == seg.true_labels[i]) ++pseudo_correct;
      ++pseudo_total;
    }
    retained_total += static_cast<int64_t>(rep.retained.size());
    result.frames_quarantined += rep.frames_quarantined;
    result.segments_skipped += rep.segment_skipped;
    result.steps_rolled_back += rep.steps_rolled_back;
    result.batches_skipped += rep.batches_skipped;
    result.grads_clipped += rep.grads_clipped;

    if (config.eval_every_segments > 0 &&
        stream.segments_emitted() % config.eval_every_segments == 0) {
      result.curve.push_back(
          {stream.samples_emitted(), accuracy(learner.model(), test)});
    }
  }

  if (faulty != nullptr) result.faults = faulty->log();
  result.final_accuracy = accuracy(learner.model(), test);
  result.condense_seconds = learner.condense_seconds();
  result.total_seconds = now_seconds() - t_start;
  result.pseudo_label_accuracy =
      pseudo_total > 0
          ? static_cast<double>(pseudo_correct) / static_cast<double>(pseudo_total)
          : 0.0;
  result.retention_rate =
      pseudo_total > 0
          ? static_cast<double>(retained_total) / static_cast<double>(pseudo_total)
          : 0.0;
  if (on_finish) on_finish(learner);
  return result;
}

std::vector<RunResult> run_seeds(RunConfig config, int64_t seeds) {
  // Each seed is a fully independent experiment, so the repeats fan out over
  // the pool (results land in their own slot, so the order is stable). The
  // kernels inside each experiment detect the nested region and run inline,
  // which keeps the fan-out free of oversubscription.
  std::vector<RunResult> out(static_cast<size_t>(seeds));
  const uint64_t base = config.seed;
  core::parallel_for(0, seeds, 1, [&](int64_t s0, int64_t s1) {
    for (int64_t s = s0; s < s1; ++s) {
      RunConfig cfg = config;
      cfg.seed = base + static_cast<uint64_t>(s);
      out[static_cast<size_t>(s)] = run_experiment(cfg);
    }
  });
  return out;
}

}  // namespace deco::eval
