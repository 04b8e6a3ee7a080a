// Tests for the per-class accuracy / catastrophic-forgetting metrics.
#include <gtest/gtest.h>

#include "deco/core/learner.h"
#include "deco/data/world.h"
#include "deco/eval/metrics.h"
#include "deco/nn/convnet.h"
#include "deco/tensor/check.h"

namespace deco {
namespace {

TEST(PerClassAccuracyTest, MatchesConfusionDiagonal) {
  data::ProceduralImageWorld world(data::icub1_spec(), 5);
  data::Dataset train = world.make_labeled_set(6, 1);
  data::Dataset test = world.make_test_set(10, 2);
  Rng rng(3);
  nn::ConvNetConfig cfg;
  cfg.in_channels = 3;
  cfg.image_h = cfg.image_w = 16;
  cfg.num_classes = 10;
  cfg.width = 8;
  cfg.depth = 2;
  nn::ConvNet model(cfg, rng);
  std::vector<int64_t> all(static_cast<size_t>(train.size()));
  for (int64_t i = 0; i < train.size(); ++i) all[static_cast<size_t>(i)] = i;
  core::train_classifier(model, train.batch(all), train.labels(), 20, 1e-3f,
                         5e-4f, 32, rng);

  const auto per_class = eval::per_class_accuracy(model, test);
  const auto conf = eval::confusion_matrix(model, test);
  ASSERT_EQ(per_class.size(), 10u);
  double mean = 0.0;
  for (size_t c = 0; c < 10; ++c) {
    EXPECT_NEAR(per_class[c], 100.0 * conf[c][c] / 10.0, 1e-3);
    mean += per_class[c];
  }
  EXPECT_NEAR(mean / 10.0, eval::accuracy(model, test), 1e-3);
}

TEST(ForgettingTrackerTest, NoForgettingWhenAccuracyRises) {
  eval::ForgettingTracker t;
  t.record({10, 20});
  t.record({30, 40});
  EXPECT_FLOAT_EQ(t.mean_forgetting(), 0.0f);
}

TEST(ForgettingTrackerTest, MeasuresDropFromPeak) {
  eval::ForgettingTracker t;
  t.record({50, 10});
  t.record({80, 20});
  t.record({30, 25});  // class 0 fell from 80 → 30; class 1 at its peak
  const auto f = t.per_class_forgetting();
  ASSERT_EQ(f.size(), 2u);
  EXPECT_FLOAT_EQ(f[0], 50.0f);
  EXPECT_FLOAT_EQ(f[1], 0.0f);
  EXPECT_FLOAT_EQ(t.mean_forgetting(), 25.0f);
}

TEST(ForgettingTrackerTest, IgnoresNeverLearnedClasses) {
  eval::ForgettingTracker t;
  t.record({40, 0});
  t.record({20, 0});
  // Class 1 was never learned (peak 0): excluded from the mean.
  EXPECT_FLOAT_EQ(t.mean_forgetting(), 20.0f);
}

TEST(ForgettingTrackerTest, FewerThanTwoSnapshotsIsZero) {
  eval::ForgettingTracker t;
  EXPECT_FLOAT_EQ(t.mean_forgetting(), 0.0f);
  t.record({50});
  EXPECT_FLOAT_EQ(t.mean_forgetting(), 0.0f);
}

TEST(ForgettingTrackerTest, RejectsClassCountChange) {
  eval::ForgettingTracker t;
  t.record({1, 2});
  EXPECT_THROW(t.record({1, 2, 3}), Error);
}

}  // namespace
}  // namespace deco
