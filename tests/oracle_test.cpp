// Tests for the oracle (upper-bound) learner path: ground-truth labels,
// unlimited storage, and its role as an upper bound in the runner.
#include <gtest/gtest.h>

#include "deco/baselines/replay.h"
#include "deco/data/stream.h"
#include "deco/data/world.h"
#include "deco/eval/metrics.h"
#include "deco/tensor/check.h"
#include "test_util.h"

namespace deco::baselines {
namespace {

nn::ConvNetConfig model_config() {
  nn::ConvNetConfig cfg;
  cfg.in_channels = 3;
  cfg.image_h = cfg.image_w = 16;
  cfg.num_classes = 10;
  cfg.width = 8;
  cfg.depth = 2;
  return cfg;
}

TEST(OracleTest, LabeledSegmentsStoreTrueLabels) {
  Rng rng(1);
  nn::ConvNet model(model_config(), rng);
  data::ProceduralImageWorld world(data::core50_spec(), 2);

  core::LearnerConfig bc;
  bc.beta = 100;  // no training in this test
  UnlimitedLearner learner(model, bc, 3);

  data::StreamConfig sc;
  sc.stc = 8;
  sc.segment_size = 8;
  sc.total_segments = 2;
  data::TemporalStream stream(world, sc, 4);
  data::Segment seg;
  while (stream.next(seg))
    learner.observe_labeled_segment(seg.images, seg.true_labels);
  EXPECT_EQ(learner.stored(), 16);
}

TEST(OracleTest, RejectsLabelCountMismatch) {
  Rng rng(5);
  nn::ConvNet model(model_config(), rng);
  core::LearnerConfig bc;
  UnlimitedLearner learner(model, bc, 6);
  Tensor images({4, 3, 16, 16});
  EXPECT_THROW(learner.observe_labeled_segment(images, {0, 1}), Error);
}

TEST(OracleTest, OracleLabelsTrainBetterThanNoisyPseudoLabels) {
  // With a weak model (high pseudo-label noise), the oracle path must end at
  // least as accurate as the pseudo-label path on the same stream — this is
  // what makes it a defensible upper bound.
  data::ProceduralImageWorld world(data::core50_spec(), 7);
  data::Dataset labeled = world.make_labeled_set(3, 1);
  data::Dataset test = world.make_test_set(15, 2);

  auto run = [&](bool oracle) {
    Rng rng(8);
    nn::ConvNet model(model_config(), rng);
    std::vector<int64_t> all(static_cast<size_t>(labeled.size()));
    for (int64_t i = 0; i < labeled.size(); ++i)
      all[static_cast<size_t>(i)] = i;
    core::train_classifier(model, labeled.batch(all), labeled.labels(), 8,
                           1e-3f, 5e-4f, 32, rng);
    core::LearnerConfig bc;
    bc.beta = 2;
    bc.model_update_epochs = 4;
    UnlimitedLearner learner(model, bc, 9);
    learner.init_buffer_from(labeled);
    data::StreamConfig sc;
    sc.stc = 16;
    sc.segment_size = 16;
    sc.total_segments = 4;
    data::TemporalStream stream(world, sc, 10);
    data::Segment seg;
    while (stream.next(seg)) {
      if (oracle) {
        learner.observe_labeled_segment(seg.images, seg.true_labels);
      } else {
        learner.observe_segment(seg.images);
      }
    }
    return eval::accuracy(model, test);
  };
  const float noisy = run(false);
  const float oracle = run(true);
  EXPECT_GE(oracle, noisy - 2.0f);  // small slack for training stochasticity
}

}  // namespace
}  // namespace baselines
