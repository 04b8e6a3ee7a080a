// Layer-wise gradient checks at deliberately awkward shapes: batch 1,
// non-square spatial extents, strides > 1 and inner dimensions that are not
// multiples of the matmul unroll width. The generic checks in layers_test.cpp
// run at friendly shapes; these pin down the padding/stride/remainder paths
// that the row-blocked parallel kernels have to get right. Both input and
// parameter gradients are verified against central finite differences, and
// the loss heads (hard and soft cross-entropy) are checked w.r.t. logits and
// targets.
#include <gtest/gtest.h>

#include "deco/nn/layers.h"
#include "deco/nn/loss.h"
#include "deco/tensor/check.h"
#include "test_util.h"

namespace deco::nn {
namespace {

using deco::testing::numeric_gradient;
using deco::testing::random_tensor;
using deco::testing::relative_error;

// Checks dL/dx for L = <forward(x), v> against finite differences.
void check_input_gradient(Module& layer, const Tensor& x, Rng& rng,
                          float tol = 2e-2f, float eps = 1e-2f) {
  Tensor y = layer.forward(x);
  Tensor v = random_tensor(y.shape(), rng);
  layer.zero_grad();
  Tensor analytic = layer.backward(v);

  auto loss = [&](const Tensor& probe) {
    return dot(layer.forward(probe), v);
  };
  Tensor numeric = numeric_gradient(loss, x, eps);
  EXPECT_LT(relative_error(analytic, numeric), tol)
      << layer.name() << " input gradient mismatch at " << x.shape_str();
}

// Checks dL/dp for every parameter p of the layer.
void check_param_gradients(Module& layer, const Tensor& x, Rng& rng,
                           float tol = 2e-2f) {
  Tensor y = layer.forward(x);
  Tensor v = random_tensor(y.shape(), rng);
  layer.zero_grad();
  layer.backward(v);

  for (ParamRef& p : layer.parameters()) {
    Tensor analytic = *p.grad;
    Tensor& value = *p.value;
    auto loss = [&](const Tensor& probe) {
      Tensor saved = value;
      value = probe;
      const float l = dot(layer.forward(x), v);
      value = saved;
      return l;
    };
    Tensor numeric = numeric_gradient(loss, value, 1e-2f);
    EXPECT_LT(relative_error(analytic, numeric), tol)
        << layer.name() << " gradient mismatch for " << p.name << " at "
        << x.shape_str();
  }
}

// ---- Conv2d -----------------------------------------------------------------

TEST(GradCheckOddShapes, Conv2dBatchOneNonSquare) {
  Rng rng(101);
  Conv2d conv(2, 3, 3, 1, 1, rng);
  Tensor x = random_tensor({1, 2, 5, 7}, rng);
  check_input_gradient(conv, x, rng);
  check_param_gradients(conv, x, rng);
}

TEST(GradCheckOddShapes, Conv2dStrideTwoOddExtent) {
  // 5×9 under stride 2 exercises the truncated final output column/row.
  Rng rng(102);
  Conv2d conv(3, 2, 3, 2, 1, rng);
  Tensor x = random_tensor({2, 3, 5, 9}, rng);
  check_input_gradient(conv, x, rng);
  check_param_gradients(conv, x, rng);
}

TEST(GradCheckOddShapes, Conv2dNoPaddingSingleChannel) {
  Rng rng(103);
  Conv2d conv(1, 5, 3, 1, 0, rng);
  Tensor x = random_tensor({1, 1, 4, 6}, rng);
  check_input_gradient(conv, x, rng);
  check_param_gradients(conv, x, rng);
}

// ---- Linear -----------------------------------------------------------------

TEST(GradCheckOddShapes, LinearBatchOne) {
  Rng rng(104);
  Linear lin(7, 3, rng);
  Tensor x = random_tensor({1, 7}, rng);
  check_input_gradient(lin, x, rng);
  check_param_gradients(lin, x, rng);
}

TEST(GradCheckOddShapes, LinearOddInnerDims) {
  // 13 in / 9 out: neither a multiple of the 4-wide matmul unroll, so the
  // remainder path of matmul_nt carries real weight here.
  Rng rng(105);
  Linear lin(13, 9, rng);
  Tensor x = random_tensor({5, 13}, rng);
  check_input_gradient(lin, x, rng);
  check_param_gradients(lin, x, rng);
}

// ---- InstanceNorm2d ---------------------------------------------------------

TEST(GradCheckOddShapes, InstanceNormBatchOneNonSquare) {
  Rng rng(106);
  InstanceNorm2d norm(3);
  Tensor x = random_tensor({1, 3, 3, 5}, rng);
  check_input_gradient(norm, x, rng);
  check_param_gradients(norm, x, rng);
}

TEST(GradCheckOddShapes, InstanceNormManyChannelsTinySpatial) {
  Rng rng(107);
  InstanceNorm2d norm(5);
  Tensor x = random_tensor({2, 5, 2, 3}, rng);
  check_input_gradient(norm, x, rng);
  check_param_gradients(norm, x, rng);
}

// ---- Activation / pooling ---------------------------------------------------

TEST(GradCheckOddShapes, ReLUBatchOne) {
  Rng rng(108);
  ReLU relu;
  // Shift away from zero so finite differences never straddle the kink.
  Tensor x = random_tensor({1, 3, 5, 7}, rng);
  for (int64_t i = 0; i < x.numel(); ++i)
    if (std::abs(x[i]) < 5e-2f) x[i] = x[i] < 0 ? -5e-2f : 5e-2f;
  check_input_gradient(relu, x, rng);
}

TEST(GradCheckOddShapes, AvgPoolNonSquare) {
  Rng rng(109);
  AvgPool2d pool(2);
  Tensor x = random_tensor({1, 2, 4, 6}, rng);
  check_input_gradient(pool, x, rng);
}

// ---- Loss heads -------------------------------------------------------------

TEST(GradCheckOddShapes, WeightedCrossEntropyLogits) {
  Rng rng(111);
  Tensor logits = random_tensor({3, 5}, rng);
  const std::vector<int64_t> labels{4, 0, 2};
  const std::vector<float> weights{0.3f, 1.0f, 0.7f};

  auto res = weighted_cross_entropy(logits, labels, weights);
  auto loss = [&](const Tensor& probe) {
    return weighted_cross_entropy(probe, labels, weights).loss;
  };
  Tensor numeric = numeric_gradient(loss, logits, 1e-2f);
  EXPECT_LT(relative_error(res.grad_logits, numeric), 2e-2f);
}

TEST(GradCheckOddShapes, WeightedCrossEntropyBatchOne) {
  Rng rng(112);
  Tensor logits = random_tensor({1, 3}, rng);
  const std::vector<int64_t> labels{1};

  auto res = weighted_cross_entropy(logits, labels);
  auto loss = [&](const Tensor& probe) {
    return weighted_cross_entropy(probe, labels).loss;
  };
  Tensor numeric = numeric_gradient(loss, logits, 1e-2f);
  EXPECT_LT(relative_error(res.grad_logits, numeric), 2e-2f);
}

TEST(GradCheckOddShapes, SoftCrossEntropyLogitsAndTargets) {
  Rng rng(113);
  Tensor logits = random_tensor({2, 4}, rng);
  // Non-negative targets (unnormalized is allowed).
  Tensor targets = random_tensor({2, 4}, rng);
  for (int64_t i = 0; i < targets.numel(); ++i)
    targets[i] = std::abs(targets[i]) + 0.1f;
  const std::vector<float> weights{0.8f, 0.5f};

  auto res = soft_cross_entropy(logits, targets, weights);

  auto loss_logits = [&](const Tensor& probe) {
    return soft_cross_entropy(probe, targets, weights).loss;
  };
  Tensor num_logits = numeric_gradient(loss_logits, logits, 1e-2f);
  EXPECT_LT(relative_error(res.grad_logits, num_logits), 2e-2f);

  auto loss_targets = [&](const Tensor& probe) {
    return soft_cross_entropy(logits, probe, weights).loss;
  };
  Tensor num_targets = numeric_gradient(loss_targets, targets, 1e-2f);
  EXPECT_LT(relative_error(res.grad_targets, num_targets), 2e-2f);
}

}  // namespace
}  // namespace deco::nn
