// Tests for MaxPool2d (including gradient routing) and for the per-class
// accuracy / catastrophic-forgetting metrics.
#include <gtest/gtest.h>

#include "deco/core/learner.h"
#include "deco/data/world.h"
#include "deco/eval/metrics.h"
#include "deco/nn/convnet.h"
#include "deco/nn/layers.h"
#include "deco/tensor/check.h"
#include "test_util.h"

namespace deco {
namespace {

using deco::testing::numeric_gradient;
using deco::testing::random_tensor;
using deco::testing::relative_error;

TEST(MaxPoolTest, ForwardPicksMaximum) {
  nn::MaxPool2d pool(2);
  Tensor x({1, 1, 2, 2}, {1, 7, 3, 4});
  Tensor y = pool.forward(x);
  ASSERT_EQ(y.numel(), 1);
  EXPECT_FLOAT_EQ(y[0], 7.0f);
}

TEST(MaxPoolTest, BackwardRoutesToArgmaxOnly) {
  nn::MaxPool2d pool(2);
  Tensor x({1, 1, 2, 2}, {1, 7, 3, 4});
  pool.forward(x);
  Tensor g({1, 1, 1, 1}, {5.0f});
  Tensor gi = pool.backward(g);
  EXPECT_FLOAT_EQ(gi[0], 0.0f);
  EXPECT_FLOAT_EQ(gi[1], 5.0f);  // position of the 7
  EXPECT_FLOAT_EQ(gi[2], 0.0f);
  EXPECT_FLOAT_EQ(gi[3], 0.0f);
}

TEST(MaxPoolTest, BackwardRejectsMismatchedShape) {
  // Only the element count used to be checked.
  nn::MaxPool2d pool(2);
  pool.forward(Tensor({3, 2, 4, 4}));
  EXPECT_THROW(pool.backward(Tensor({2, 3, 2, 2})), Error);
  EXPECT_THROW(pool.backward(Tensor({3, 2, 1, 4})), Error);
  EXPECT_THROW(pool.backward(Tensor({3, 8, 1, 1})), Error);
  EXPECT_THROW(pool.backward(Tensor({1, 2, 2, 2})), Error);
  EXPECT_NO_THROW(pool.backward(Tensor({3, 2, 2, 2})));
}

TEST(MaxPoolTest, GradCheck) {
  Rng rng(1);
  nn::MaxPool2d pool(2);
  // Spread-out values so finite differences don't cross argmax ties.
  Tensor x({2, 2, 4, 4});
  for (int64_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<float>(i % 13) + 0.1f * static_cast<float>(rng.normal());
  Tensor y = pool.forward(x);
  Tensor v = random_tensor(y.shape(), rng);
  Tensor analytic = pool.backward(v);
  auto loss = [&](const Tensor& probe) { return dot(pool.forward(probe), v); };
  Tensor numeric = numeric_gradient(loss, x, 1e-3f);
  EXPECT_LT(relative_error(analytic, numeric), 2e-2f);
}

TEST(MaxPoolTest, RejectsIndivisibleDims) {
  nn::MaxPool2d pool(2);
  Tensor x({1, 1, 3, 4});
  EXPECT_THROW(pool.forward(x), Error);
}

TEST(MaxPoolConvNetTest, PoolingOptionBuildsAndTrains) {
  Rng rng(2);
  nn::ConvNetConfig cfg;
  cfg.in_channels = 2;
  cfg.image_h = cfg.image_w = 8;
  cfg.num_classes = 3;
  cfg.width = 6;
  cfg.depth = 2;
  cfg.pooling = nn::Pooling::kMax;
  nn::ConvNet net(cfg, rng);
  Tensor x = random_tensor({4, 2, 8, 8}, rng);
  Tensor logits = net.forward(x);
  EXPECT_EQ(logits.shape(), (std::vector<int64_t>{4, 3}));
  net.zero_grad();
  Tensor gi = net.backward(random_tensor(logits.shape(), rng));
  EXPECT_EQ(gi.shape(), x.shape());
}

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
