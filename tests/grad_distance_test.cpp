#include "deco/condense/grad_distance.h"

#include <gtest/gtest.h>

#include "deco/condense/grad_utils.h"
#include "deco/nn/convnet.h"
#include "deco/nn/loss.h"
#include "deco/tensor/check.h"
#include "test_util.h"

namespace deco::condense {
namespace {

using deco::testing::numeric_gradient;
using deco::testing::random_tensor;
using deco::testing::relative_error;

GradVec random_gradvec(Rng& rng) {
  GradVec g;
  g.push_back(random_tensor({4, 6}, rng));
  g.push_back(random_tensor({4}, rng));
  g.push_back(random_tensor({3, 10}, rng));
  return g;
}

TEST(GradDistanceTest, ZeroForIdenticalGradients) {
  Rng rng(1);
  GradVec a = random_gradvec(rng);
  GradVec b = a;
  EXPECT_NEAR(gradient_distance_value(a, b), 0.0f, 1e-5f);
}

TEST(GradDistanceTest, MaximalForOpposedGradients) {
  Rng rng(2);
  GradVec a = random_gradvec(rng);
  GradVec b;
  for (const Tensor& t : a) b.push_back(t * -1.0f);
  // Per-row cosine = −1 → distance = 2 per row. Rows: 4 (first matrix) + 3
  // (second matrix); the 1-D tensor is excluded from the distance, as in the
  // reference DC implementation.
  EXPECT_NEAR(gradient_distance_value(a, b), 14.0f, 1e-4f);
}

TEST(GradDistanceTest, ValueIsScaleInvariant) {
  Rng rng(3);
  GradVec a = random_gradvec(rng);
  GradVec b = random_gradvec(rng);
  GradVec a_scaled;
  for (const Tensor& t : a) a_scaled.push_back(t * 5.0f);
  EXPECT_NEAR(gradient_distance_value(a, b),
              gradient_distance_value(a_scaled, b), 1e-4f);
}

TEST(GradDistanceTest, DegenerateRowsContributeNothing) {
  GradVec a, b;
  a.push_back(Tensor({2, 3}));  // all-zero rows
  b.push_back(Tensor({2, 3}, {1, 2, 3, 4, 5, 6}));
  auto res = gradient_distance(a, b);
  EXPECT_EQ(res.value, 0.0f);
  EXPECT_EQ(res.d_syn[0].norm(), 0.0f);
}

TEST(GradDistanceTest, AnalyticDerivativeMatchesFiniteDifference) {
  Rng rng(4);
  GradVec a = random_gradvec(rng);
  GradVec b = random_gradvec(rng);
  auto res = gradient_distance(a, b);

  for (size_t li = 0; li < a.size(); ++li) {
    auto loss = [&](const Tensor& probe) {
      GradVec mod = a;
      mod[li] = probe;
      return gradient_distance_value(mod, b);
    };
    Tensor numeric = numeric_gradient(loss, a[li], 1e-3f);
    EXPECT_LT(relative_error(res.d_syn[li], numeric), 1e-2f)
        << "layer " << li;
  }
}

TEST(GradDistanceTest, DerivativeIsOrthogonalToOwnGradient) {
  // Cosine distance is invariant to the scale of a, so its derivative must be
  // orthogonal to a (per row). Check the flat dot product layer by layer.
  Rng rng(5);
  GradVec a = random_gradvec(rng);
  GradVec b = random_gradvec(rng);
  auto res = gradient_distance(a, b);
  for (size_t li = 0; li < a.size(); ++li) {
    int64_t rows = a[li].ndim() >= 2 ? a[li].dim(0) : 1;
    int64_t cols = a[li].numel() / rows;
    for (int64_t r = 0; r < rows; ++r) {
      double d = 0.0;
      for (int64_t j = 0; j < cols; ++j)
        d += static_cast<double>(a[li][r * cols + j]) *
             res.d_syn[li][r * cols + j];
      EXPECT_NEAR(d, 0.0, 1e-4) << "layer " << li << " row " << r;
    }
  }
}

TEST(GradDistanceTest, MismatchedLayersThrow) {
  Rng rng(6);
  GradVec a = random_gradvec(rng);
  GradVec b = random_gradvec(rng);
  b.pop_back();
  EXPECT_THROW(gradient_distance(a, b), Error);
}

TEST(GradUtilsTest, CloneAndPerturbRoundTrip) {
  Rng rng(7);
  nn::ConvNetConfig cfg;
  cfg.in_channels = 1;
  cfg.image_h = cfg.image_w = 4;
  cfg.num_classes = 3;
  cfg.width = 4;
  cfg.depth = 1;
  nn::ConvNet net(cfg, rng);

  // Produce some gradients.
  Tensor x = random_tensor({2, 1, 4, 4}, rng);
  net.zero_grad();
  Tensor logits = net.forward(x);
  auto ce = nn::weighted_cross_entropy(logits, {0, 1});
  net.backward(ce.grad_logits);

  GradVec g = clone_grads(net);
  EXPECT_EQ(static_cast<size_t>(g.size()), net.parameters().size());
  EXPECT_GT(global_norm(g), 0.0f);

  // Perturb +eps then −eps must restore parameters exactly enough.
  Tensor before = *net.parameters()[0].value;
  perturb_params(net, g, 0.5f);
  Tensor mid = *net.parameters()[0].value;
  EXPECT_GT(before.l1_distance(mid), 0.0f);
  perturb_params(net, g, -0.5f);
  Tensor after = *net.parameters()[0].value;
  EXPECT_LT(before.l1_distance(after), 1e-4f);
}

}  // namespace
}  // namespace deco::condense
