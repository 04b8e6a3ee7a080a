// Verifies the finite-difference one-step matcher (Eqs. 5–7) against a direct
// numeric gradient of the matching distance with respect to the synthetic
// pixels — i.e. that the 5-pass O(|θ|+|X|) trick computes what the expensive
// second-order chain rule (Eq. 6) would.
//
// The convergence comparisons use a ReLU-free (smooth) network: with ReLU the
// parameter gradient g_syn(X) is discontinuous across activation-pattern
// boundaries, so an outer numeric differentiation of D(X) does not converge
// and cannot serve as ground truth (the matcher is still the correct
// almost-everywhere gradient there, as in the PyTorch double-backward
// implementations). Shape/restore/robustness tests use the real ConvNet.
#include "deco/condense/matcher.h"

#include <gtest/gtest.h>

#include <memory>

#include "deco/condense/grad_distance.h"
#include "deco/condense/grad_utils.h"
#include "deco/nn/convnet.h"
#include "deco/nn/layers.h"
#include "deco/nn/loss.h"
#include "deco/nn/sequential.h"
#include "deco/tensor/check.h"
#include "test_util.h"

namespace deco::condense {
namespace {

using deco::testing::numeric_gradient;
using deco::testing::random_tensor;
using deco::testing::relative_error;

nn::ConvNetConfig tiny_config() {
  nn::ConvNetConfig cfg;
  cfg.in_channels = 1;
  cfg.image_h = cfg.image_w = 4;
  cfg.num_classes = 3;
  cfg.width = 4;
  cfg.depth = 1;
  return cfg;
}

// Conv → InstanceNorm → AvgPool → Flatten → Linear, no ReLU: smooth in both
// parameters and inputs, so numeric differentiation of D is well-defined.
std::unique_ptr<nn::Sequential> smooth_model(Rng& rng) {
  auto m = std::make_unique<nn::Sequential>();
  m->add(std::make_unique<nn::Conv2d>(1, 4, 3, 1, 1, rng));
  m->add(std::make_unique<nn::InstanceNorm2d>(4));
  m->add(std::make_unique<nn::AvgPool2d>(2));
  m->add(std::make_unique<nn::Flatten>());
  m->add(std::make_unique<nn::Linear>(16, 3, rng));
  return m;
}

// Computes D(g_syn(X_syn), g_real) from scratch — the quantity the matcher
// differentiates.
float matching_distance(nn::Module& model, const Tensor& x_syn,
                        const std::vector<int64_t>& y_syn, const Tensor& x_real,
                        const std::vector<int64_t>& y_real,
                        const std::vector<float>& w_real) {
  model.zero_grad();
  auto ce_r = nn::weighted_cross_entropy(model.forward(x_real), y_real, w_real);
  model.backward(ce_r.grad_logits);
  GradVec g_real = clone_grads(model);

  model.zero_grad();
  auto ce_s = nn::weighted_cross_entropy(model.forward(x_syn), y_syn);
  model.backward(ce_s.grad_logits);
  GradVec g_syn = clone_grads(model);
  model.zero_grad();
  return gradient_distance_value(g_syn, g_real);
}

TEST(MatcherTest, FiniteDifferenceGradientMatchesDirectNumeric) {
  Rng rng(1);
  auto model = smooth_model(rng);
  Tensor x_syn = random_tensor({3, 1, 4, 4}, rng, 0.5);
  const std::vector<int64_t> y_syn{0, 1, 2};
  Tensor x_real = random_tensor({6, 1, 4, 4}, rng, 0.5);
  const std::vector<int64_t> y_real{0, 0, 1, 1, 2, 2};
  const std::vector<float> w_real{1.0f, 0.8f, 0.9f, 1.0f, 0.7f, 0.6f};

  GradientMatcher matcher(*model);
  MatchResult res = matcher.match(x_syn, y_syn, x_real, y_real, w_real);
  EXPECT_GT(res.distance, 0.0f);
  EXPECT_EQ(res.grad_syn.shape(), x_syn.shape());

  auto dist = [&](const Tensor& probe) {
    return matching_distance(*model, probe, y_syn, x_real, y_real, w_real);
  };
  Tensor numeric = numeric_gradient(dist, x_syn, 1e-2f);
  EXPECT_LT(relative_error(res.grad_syn, numeric), 1e-2f);
}

TEST(MatcherTest, FiniteDifferenceStableAcrossFdScales) {
  // The ε rule should make the estimate insensitive to the fd_scale knob on a
  // smooth model (the approximation error is O(ε²)).
  Rng rng(2);
  auto model = smooth_model(rng);
  Tensor x_syn = random_tensor({2, 1, 4, 4}, rng, 0.5);
  Tensor x_real = random_tensor({4, 1, 4, 4}, rng, 0.5);
  const std::vector<int64_t> y_syn{0, 1};
  const std::vector<int64_t> y_real{0, 0, 1, 1};

  GradientMatcher coarse(*model, 0.05f);
  GradientMatcher fine(*model, 0.002f);
  MatchResult a = coarse.match(x_syn, y_syn, x_real, y_real, {});
  MatchResult b = fine.match(x_syn, y_syn, x_real, y_real, {});
  EXPECT_LT(relative_error(a.grad_syn, b.grad_syn), 5e-2f);
}

TEST(MatcherTest, RestoresModelParameters) {
  Rng rng(3);
  nn::ConvNet model(tiny_config(), rng);
  Tensor before = *model.parameters()[0].value;
  Tensor x_syn = random_tensor({2, 1, 4, 4}, rng, 0.5);
  Tensor x_real = random_tensor({4, 1, 4, 4}, rng, 0.5);
  GradientMatcher matcher(model);
  matcher.match(x_syn, {0, 1}, x_real, {0, 0, 1, 1}, {});
  Tensor after = *model.parameters()[0].value;
  EXPECT_LT(before.l1_distance(after), 1e-4f);
}

TEST(MatcherTest, GradientDescentOnMatcherOutputReducesDistance) {
  Rng rng(4);
  auto model = smooth_model(rng);
  Tensor x_syn = random_tensor({3, 1, 4, 4}, rng, 0.5);
  const std::vector<int64_t> y_syn{0, 1, 2};
  Tensor x_real = random_tensor({6, 1, 4, 4}, rng, 0.5);
  const std::vector<int64_t> y_real{0, 0, 1, 1, 2, 2};

  GradientMatcher matcher(*model);
  const float d0 = matching_distance(*model, x_syn, y_syn, x_real, y_real, {});
  for (int step = 0; step < 30; ++step) {
    MatchResult res = matcher.match(x_syn, y_syn, x_real, y_real, {});
    // Normalized step: robust to the (scale-dependent) raw gradient norm.
    const float n = res.grad_syn.norm();
    if (n > 1e-12f) x_syn.add_scaled_(res.grad_syn, -0.05f / n);
  }
  const float d1 = matching_distance(*model, x_syn, y_syn, x_real, y_real, {});
  EXPECT_LT(d1, d0);
}

TEST(MatcherTest, ConvNetGradientsAreFiniteAndRestore) {
  // With ReLU the matcher output is an a.e. gradient; we can still assert it
  // is finite, correctly shaped, and leaves the model untouched.
  Rng rng(5);
  nn::ConvNet model(tiny_config(), rng);
  Tensor x_syn = random_tensor({3, 1, 4, 4}, rng, 0.5);
  Tensor x_real = random_tensor({6, 1, 4, 4}, rng, 0.5);
  GradientMatcher matcher(model);
  MatchResult res =
      matcher.match(x_syn, {0, 1, 2}, x_real, {0, 0, 1, 1, 2, 2}, {});
  EXPECT_GT(res.distance, 0.0f);
  for (int64_t j = 0; j < res.grad_syn.numel(); ++j)
    EXPECT_TRUE(std::isfinite(res.grad_syn[j]));
}

TEST(MatcherTest, AugmentedMatchProducesFiniteGradients) {
  Rng rng(6);
  nn::ConvNet model(tiny_config(), rng);
  Tensor x_syn = random_tensor({2, 1, 4, 4}, rng, 0.5);
  Tensor x_real = random_tensor({4, 1, 4, 4}, rng, 0.5);
  augment::SiameseAugment aug("flip_shift_scale_rotate_color_cutout");
  GradientMatcher matcher(model);
  for (int i = 0; i < 10; ++i) {
    MatchResult res = matcher.match_with_params(
        x_syn, {0, 1}, x_real, {0, 0, 1, 1}, {}, aug,
        aug.sample(rng, x_syn.dim(2), x_syn.dim(3)));
    EXPECT_EQ(res.grad_syn.shape(), x_syn.shape());
    for (int64_t j = 0; j < res.grad_syn.numel(); ++j)
      EXPECT_TRUE(std::isfinite(res.grad_syn[j]));
  }
}

TEST(MatcherTest, LabelCountMismatchThrows) {
  Rng rng(7);
  nn::ConvNet model(tiny_config(), rng);
  Tensor x_syn = random_tensor({2, 1, 4, 4}, rng);
  Tensor x_real = random_tensor({2, 1, 4, 4}, rng);
  GradientMatcher matcher(model);
  EXPECT_THROW(matcher.match(x_syn, {0}, x_real, {0, 1}, {}), Error);
}

TEST(MatcherTest, RejectsNonPositiveFdScale) {
  Rng rng(8);
  nn::ConvNet model(tiny_config(), rng);
  EXPECT_THROW(GradientMatcher(model, 0.0f), Error);
}

}  // namespace
}  // namespace deco::condense
