#include "deco/nn/loss.h"

#include <gtest/gtest.h>

#include <cmath>

#include "deco/tensor/check.h"
#include "deco/tensor/ops.h"
#include "test_util.h"

namespace deco::nn {
namespace {

using deco::testing::numeric_gradient;
using deco::testing::random_tensor;
using deco::testing::relative_error;

TEST(CrossEntropyTest, UniformLogitsGiveLogC) {
  Tensor logits({2, 4});
  auto res = weighted_cross_entropy(logits, {0, 3});
  EXPECT_NEAR(res.loss, std::log(4.0f), 1e-5f);
}

TEST(CrossEntropyTest, PerfectPredictionNearZeroLoss) {
  Tensor logits({1, 3}, {100.0f, 0.0f, 0.0f});
  auto res = weighted_cross_entropy(logits, {0});
  EXPECT_LT(res.loss, 1e-4f);
}

TEST(CrossEntropyTest, GradientRowsSumToZero) {
  Rng rng(1);
  Tensor logits = random_tensor({3, 5}, rng, 2.0);
  auto res = weighted_cross_entropy(logits, {1, 0, 4}, {0.5f, 1.0f, 2.0f});
  for (int64_t i = 0; i < 3; ++i) {
    double s = 0.0;
    for (int64_t j = 0; j < 5; ++j) s += res.grad_logits.at2(i, j);
    EXPECT_NEAR(s, 0.0, 1e-6);
  }
}

TEST(CrossEntropyTest, GradCheck) {
  Rng rng(2);
  Tensor logits = random_tensor({4, 6}, rng, 2.0);
  const std::vector<int64_t> labels{0, 5, 2, 2};
  const std::vector<float> weights{1.0f, 0.3f, 2.0f, 0.0f};
  auto res = weighted_cross_entropy(logits, labels, weights);
  auto loss = [&](const Tensor& probe) {
    return weighted_cross_entropy(probe, labels, weights).loss;
  };
  Tensor numeric = numeric_gradient(loss, logits, 1e-3f);
  EXPECT_LT(relative_error(res.grad_logits, numeric), 1e-2f);
}

TEST(CrossEntropyTest, WeightsScaleContribution) {
  Tensor logits({2, 3}, {1, 2, 3, 3, 2, 1});
  auto w0 = weighted_cross_entropy(logits, {0, 0}, {0.0f, 0.0f});
  EXPECT_NEAR(w0.loss, 0.0f, 1e-7f);
  EXPECT_NEAR(w0.grad_logits.norm(), 0.0f, 1e-7f);
  auto w2 = weighted_cross_entropy(logits, {0, 0}, {2.0f, 2.0f});
  auto w1 = weighted_cross_entropy(logits, {0, 0});
  EXPECT_NEAR(w2.loss, 2.0f * w1.loss, 1e-5f);
}

TEST(CrossEntropyTest, RejectsBadLabels) {
  Tensor logits({1, 3});
  EXPECT_THROW(weighted_cross_entropy(logits, {3}), Error);
  EXPECT_THROW(weighted_cross_entropy(logits, {-1}), Error);
  EXPECT_THROW(weighted_cross_entropy(logits, {0, 1}), Error);
}

// ---- feature discrimination (Eq. 8) ------------------------------------------

TEST(FeatureDiscriminationTest, LossIsFiniteAndGradShaped) {
  Rng rng(3);
  Tensor emb = random_tensor({6, 8}, rng);
  const std::vector<int64_t> labels{0, 0, 1, 1, 2, 2};
  const std::vector<int64_t> anchors{0, 2};
  const std::vector<int64_t> negs{1, 2};
  auto res = feature_discrimination_loss(emb, labels, anchors, negs, 0.07f);
  EXPECT_TRUE(std::isfinite(res.loss));
  EXPECT_EQ(res.grad_embeddings.shape(), emb.shape());
}

TEST(FeatureDiscriminationTest, GradCheck) {
  Rng rng(4);
  Tensor emb = random_tensor({6, 5}, rng);
  const std::vector<int64_t> labels{0, 0, 0, 1, 1, 2};
  const std::vector<int64_t> anchors{0, 1, 3};
  const std::vector<int64_t> negs{1, 2, 0};
  const float tau = 0.2f;
  auto res = feature_discrimination_loss(emb, labels, anchors, negs, tau);
  auto loss = [&](const Tensor& probe) {
    return feature_discrimination_loss(probe, labels, anchors, negs, tau).loss;
  };
  Tensor numeric = numeric_gradient(loss, emb, 1e-3f);
  EXPECT_LT(relative_error(res.grad_embeddings, numeric), 2e-2f);
}

TEST(FeatureDiscriminationTest, PullsPositivesPushesNegatives) {
  // Three points: anchor and positive nearly aligned, negative opposed.
  // Loss should be lower than the mirrored configuration where the positive
  // is opposed and the negative aligned.
  Tensor good({3, 2}, {1, 0, 0.9f, 0.1f, -1, 0});
  Tensor bad({3, 2}, {1, 0, -1, 0, 0.9f, 0.1f});
  const std::vector<int64_t> labels{0, 0, 1};
  const std::vector<int64_t> anchors{0};
  const std::vector<int64_t> negs{1};
  auto g = feature_discrimination_loss(good, labels, anchors, negs, 0.5f);
  auto b = feature_discrimination_loss(bad, labels, anchors, negs, 0.5f);
  EXPECT_LT(g.loss, b.loss);
}

TEST(FeatureDiscriminationTest, NoPositivesMeansZeroLoss) {
  Rng rng(5);
  Tensor emb = random_tensor({3, 4}, rng);
  // Anchor's class has only the anchor itself: P(i) empty → anchor skipped.
  const std::vector<int64_t> labels{0, 1, 1};
  auto res = feature_discrimination_loss(emb, labels, {0}, {1}, 0.07f);
  EXPECT_EQ(res.loss, 0.0f);
  EXPECT_NEAR(res.grad_embeddings.norm(), 0.0f, 1e-7f);
}

TEST(FeatureDiscriminationTest, ScaleInvarianceViaNormalization) {
  // Internal L2 normalization: scaling all embeddings must not change loss.
  Rng rng(6);
  Tensor emb = random_tensor({4, 5}, rng);
  const std::vector<int64_t> labels{0, 0, 1, 1};
  auto a = feature_discrimination_loss(emb, labels, {0}, {1}, 0.07f);
  Tensor scaled = emb * 10.0f;
  auto b = feature_discrimination_loss(scaled, labels, {0}, {1}, 0.07f);
  EXPECT_NEAR(a.loss, b.loss, 1e-4f);
}

TEST(FeatureDiscriminationTest, RejectsNegativeEqualToAnchorClass) {
  Tensor emb({2, 2});
  EXPECT_THROW(
      feature_discrimination_loss(emb, {0, 0}, {0}, {0}, 0.07f), Error);
}

}  // namespace
}  // namespace deco::nn
