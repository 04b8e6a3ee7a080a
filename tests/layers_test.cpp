// Gradient checks for every layer: the analytic backward pass (both input and
// parameter gradients) is verified against central finite differences. These
// are the load-bearing tests for the whole library — gradient matching is
// only as correct as the gradients it matches.
#include "deco/nn/layers.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>

#include "deco/tensor/check.h"
#include "test_util.h"

namespace deco::nn {
namespace {

using deco::testing::numeric_gradient;
using deco::testing::random_tensor;
using deco::testing::relative_error;

// Checks dL/dx for L = <forward(x), v> against finite differences.
void check_input_gradient(Module& layer, const Tensor& x, Rng& rng,
                          float tol = 2e-2f) {
  Tensor y = layer.forward(x);
  Tensor v = random_tensor(y.shape(), rng);
  layer.zero_grad();
  Tensor analytic = layer.backward(v);

  auto loss = [&](const Tensor& probe) {
    return dot(layer.forward(probe), v);
  };
  Tensor numeric = numeric_gradient(loss, x, 1e-2f);
  EXPECT_LT(relative_error(analytic, numeric), tol)
      << layer.name() << " input gradient mismatch";
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
        << layer.name() << " gradient mismatch for " << p.name;
  }
}

TEST(LinearTest, ForwardComputesAffineMap) {
  Rng rng(1);
  Linear lin(3, 2, rng);
  // Overwrite weights with known values.
  auto params = lin.parameters();
  *params[0].value = Tensor({2, 3}, {1, 0, 0, 0, 1, 0});
  *params[1].value = Tensor({2}, {10, 20});
  Tensor x({1, 3}, {5, 6, 7});
  Tensor y = lin.forward(x);
  EXPECT_FLOAT_EQ(y.at2(0, 0), 15.0f);
  EXPECT_FLOAT_EQ(y.at2(0, 1), 26.0f);
}

TEST(LinearTest, GradCheck) {
  Rng rng(2);
  Linear lin(5, 4, rng);
  Tensor x = random_tensor({3, 5}, rng);
  check_input_gradient(lin, x, rng);
  check_param_gradients(lin, x, rng);
}

TEST(LinearTest, RejectsWrongInputWidth) {
  Rng rng(3);
  Linear lin(5, 4, rng);
  Tensor x({2, 6});
  EXPECT_THROW(lin.forward(x), Error);
}

TEST(Conv2dTest, GradCheck) {
  Rng rng(4);
  Conv2d conv(2, 3, 3, 1, 1, rng);
  Tensor x = random_tensor({2, 2, 5, 5}, rng);
  check_input_gradient(conv, x, rng);
  check_param_gradients(conv, x, rng);
}

TEST(Conv2dTest, GradCheckStride2NoPadding) {
  Rng rng(5);
  Conv2d conv(1, 2, 3, 2, 0, rng);
  Tensor x = random_tensor({1, 1, 7, 7}, rng);
  check_input_gradient(conv, x, rng);
  check_param_gradients(conv, x, rng);
}

TEST(Conv2dTest, OutputShape) {
  Rng rng(6);
  Conv2d conv(3, 8, 3, 1, 1, rng);
  Tensor x = random_tensor({4, 3, 16, 16}, rng);
  Tensor y = conv.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<int64_t>{4, 8, 16, 16}));
}

TEST(Conv2dTest, KnownIdentityKernel) {
  Rng rng(7);
  Conv2d conv(1, 1, 3, 1, 1, rng);
  auto params = conv.parameters();
  params[0].value->zero();
  // Center tap = 1: convolution becomes identity.
  (*params[0].value)[4] = 1.0f;
  params[1].value->zero();
  Tensor x = random_tensor({1, 1, 4, 4}, rng);
  Tensor y = conv.forward(x);
  deco::testing::expect_tensor_near(y, x, 1e-5f, 1e-5f);
}

TEST(Conv2dTest, BiasShiftsAllOutputs) {
  Rng rng(8);
  Conv2d conv(1, 1, 3, 1, 1, rng);
  auto params = conv.parameters();
  params[0].value->zero();
  *params[1].value = Tensor({1}, {2.5f});
  Tensor x({1, 1, 4, 4});
  Tensor y = conv.forward(x);
  for (int64_t i = 0; i < y.numel(); ++i) EXPECT_FLOAT_EQ(y[i], 2.5f);
}

TEST(ReluTest, ForwardClampsNegative) {
  ReLU relu;
  Tensor x({4}, {-1, 0, 2, -3});
  x.reshape({1, 4});
  Tensor y = relu.forward(x);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[1], 0.0f);
  EXPECT_EQ(y[2], 2.0f);
  EXPECT_EQ(y[3], 0.0f);
}

TEST(ReluTest, BackwardMasksGradient) {
  ReLU relu;
  Tensor x({1, 4}, {-1, 1, 2, -3});
  relu.forward(x);
  Tensor g({1, 4}, {10, 20, 30, 40});
  Tensor gi = relu.backward(g);
  EXPECT_EQ(gi[0], 0.0f);
  EXPECT_EQ(gi[1], 20.0f);
  EXPECT_EQ(gi[2], 30.0f);
  EXPECT_EQ(gi[3], 0.0f);
}

TEST(ReluTest, ForwardMapsNanAndNegativeZeroToPositiveZero) {
  ReLU relu;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor x({1, 5}, {nan, -0.0f, 0.0f, -2.0f, 3.0f});
  const Tensor y = relu.forward(x);
  const Tensor want({1, 5}, {0.0f, 0.0f, 0.0f, 0.0f, 3.0f});
  EXPECT_EQ(std::memcmp(y.data(), want.data(), 5 * sizeof(float)), 0);
  // The input is left as it was.
  EXPECT_TRUE(std::isnan(x[0]));
  EXPECT_TRUE(std::signbit(x[1]));
}

TEST(ReluTest, BackwardRejectsMismatchedShape) {
  // Only the element count used to be checked.
  ReLU relu;
  relu.forward(Tensor({2, 3, 4, 4}));
  EXPECT_THROW(relu.backward(Tensor({3, 2, 4, 4})), Error);
  EXPECT_THROW(relu.backward(Tensor({2, 48})), Error);
  EXPECT_THROW(relu.backward(Tensor({2, 3, 4, 5})), Error);
  EXPECT_NO_THROW(relu.backward(Tensor({2, 3, 4, 4})));
}

TEST(AvgPoolTest, ForwardAverages) {
  AvgPool2d pool(2);
  Tensor x({1, 1, 2, 2}, {1, 2, 3, 4});
  Tensor y = pool.forward(x);
  ASSERT_EQ(y.numel(), 1);
  EXPECT_FLOAT_EQ(y[0], 2.5f);
}

TEST(AvgPoolTest, GradCheck) {
  Rng rng(9);
  AvgPool2d pool(2);
  Tensor x = random_tensor({2, 3, 4, 4}, rng);
  check_input_gradient(pool, x, rng, 1e-2f);
}

TEST(AvgPoolTest, RejectsIndivisibleDims) {
  AvgPool2d pool(2);
  Tensor x({1, 1, 3, 4});
  EXPECT_THROW(pool.forward(x), Error);
}

TEST(AvgPoolTest, BackwardRejectsMismatchedBatch) {
  // Only the spatial dims used to be checked, so a gradient with fewer
  // (n, c) planes passed and the scatter read past its end.
  AvgPool2d pool(2);
  pool.forward(Tensor({3, 2, 4, 4}));
  EXPECT_THROW(pool.backward(Tensor({1, 2, 2, 2})), Error);
  EXPECT_THROW(pool.backward(Tensor({3, 1, 2, 2})), Error);
  EXPECT_THROW(pool.backward(Tensor({3, 2, 2, 2, 1})), Error);
  EXPECT_NO_THROW(pool.backward(Tensor({3, 2, 2, 2})));
}

TEST(InstanceNormTest, NormalizesPerChannelPerSample) {
  Rng rng(10);
  InstanceNorm2d norm(2);
  Tensor x = random_tensor({3, 2, 4, 4}, rng, 5.0);
  x.add_scalar_(3.0f);
  Tensor y = norm.forward(x);
  // Each (n, c) plane of the output should be ~zero-mean unit-variance
  // (gamma=1, beta=0 at init).
  for (int64_t n = 0; n < 3; ++n) {
    for (int64_t c = 0; c < 2; ++c) {
      double mean = 0.0, var = 0.0;
      for (int64_t h = 0; h < 4; ++h)
        for (int64_t w = 0; w < 4; ++w) mean += y.at4(n, c, h, w);
      mean /= 16.0;
      for (int64_t h = 0; h < 4; ++h)
        for (int64_t w = 0; w < 4; ++w) {
          const double d = y.at4(n, c, h, w) - mean;
          var += d * d;
        }
      var /= 16.0;
      EXPECT_NEAR(mean, 0.0, 1e-4);
      EXPECT_NEAR(var, 1.0, 1e-2);
    }
  }
}

TEST(InstanceNormTest, GradCheck) {
  Rng rng(11);
  InstanceNorm2d norm(2);
  Tensor x = random_tensor({2, 2, 3, 3}, rng);
  check_input_gradient(norm, x, rng);
  check_param_gradients(norm, x, rng);
}

TEST(InstanceNormTest, GradCheckWithNonTrivialAffine) {
  Rng rng(12);
  InstanceNorm2d norm(3);
  auto params = norm.parameters();
  rng.fill_normal(*params[0].value, 1.0, 0.3);
  rng.fill_normal(*params[1].value, 0.0, 0.3);
  Tensor x = random_tensor({2, 3, 4, 4}, rng, 2.0);
  check_input_gradient(norm, x, rng);
  check_param_gradients(norm, x, rng);
}

TEST(FlattenTest, RoundTrip) {
  Flatten fl;
  Rng rng(13);
  Tensor x = random_tensor({2, 3, 4, 5}, rng);
  Tensor y = fl.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<int64_t>{2, 60}));
  Tensor g = random_tensor({2, 60}, rng);
  Tensor gi = fl.backward(g);
  EXPECT_EQ(gi.shape(), x.shape());
}

TEST(ReinitializeTest, ChangesWeightsDeterministically) {
  Rng rng_a(100), rng_b(100), rng_c(200);
  Conv2d a(2, 4, 3, 1, 1, rng_a);
  Conv2d b(2, 4, 3, 1, 1, rng_b);
  Conv2d c(2, 4, 3, 1, 1, rng_c);
  auto pa = a.parameters()[0].value;
  auto pb = b.parameters()[0].value;
  auto pc = c.parameters()[0].value;
  EXPECT_LT(pa->l1_distance(*pb), 1e-6f);  // same seed → same init
  EXPECT_GT(pa->l1_distance(*pc), 1e-3f);  // different seed → different init
}

// Parameterized sweep: conv gradcheck across kernel/stride/padding configs.
struct ConvCase {
  int64_t in_ch, out_ch, kernel, stride, padding, h, w;
};

class ConvGradSweep : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvGradSweep, InputAndParamGradients) {
  const ConvCase c = GetParam();
  Rng rng(314 + c.kernel * 10 + c.stride);
  Conv2d conv(c.in_ch, c.out_ch, c.kernel, c.stride, c.padding, rng);
  Tensor x = random_tensor({2, c.in_ch, c.h, c.w}, rng);
  check_input_gradient(conv, x, rng);
  check_param_gradients(conv, x, rng);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvGradSweep,
    ::testing::Values(ConvCase{1, 1, 1, 1, 0, 4, 4},
                      ConvCase{2, 3, 3, 1, 1, 6, 6},
                      ConvCase{3, 2, 3, 2, 1, 8, 8},
                      ConvCase{2, 2, 5, 1, 2, 7, 7},
                      ConvCase{1, 4, 3, 1, 0, 5, 9}));

}  // namespace
}  // namespace deco::nn
