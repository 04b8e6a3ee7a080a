#include "deco/nn/optim.h"

#include <gtest/gtest.h>

namespace deco::nn {
namespace {

// Minimizes f(w) = 0.5·‖w − target‖² with SGD; gradient = w − target.
float optimize_quadratic(SgdMomentum& opt, Tensor& w, Tensor& g,
                         const Tensor& target, int steps) {
  for (int s = 0; s < steps; ++s) {
    for (int64_t i = 0; i < w.numel(); ++i) g[i] = w[i] - target[i];
    opt.step();
  }
  Tensor diff = w - target;
  return diff.norm();
}

TEST(SgdTest, ConvergesOnQuadratic) {
  Tensor w({4}, {5, -3, 2, 9});
  Tensor g({4});
  Tensor target({4}, {1, 1, 1, 1});
  SgdMomentum opt({ParamRef{"w", &w, &g}}, 0.1f, 0.9f);
  EXPECT_LT(optimize_quadratic(opt, w, g, target, 200), 1e-3f);
}

TEST(SgdTest, NoMomentumSingleStepIsPlainSgd) {
  Tensor w({1}, {2.0f});
  Tensor g({1}, {0.5f});
  SgdMomentum opt({ParamRef{"w", &w, &g}}, 0.1f, 0.0f);
  opt.step();
  EXPECT_FLOAT_EQ(w[0], 2.0f - 0.1f * 0.5f);
}

TEST(SgdTest, MomentumAccumulates) {
  Tensor w({1}, {0.0f});
  Tensor g({1}, {1.0f});
  SgdMomentum opt({ParamRef{"w", &w, &g}}, 1.0f, 0.5f);
  opt.step();  // v = 1, w = -1
  EXPECT_FLOAT_EQ(w[0], -1.0f);
  opt.step();  // v = 1.5, w = -2.5
  EXPECT_FLOAT_EQ(w[0], -2.5f);
}

TEST(SgdTest, WeightDecayShrinksWeights) {
  Tensor w({1}, {10.0f});
  Tensor g({1}, {0.0f});
  SgdMomentum opt({ParamRef{"w", &w, &g}}, 0.1f, 0.0f, 0.1f);
  opt.step();
  EXPECT_LT(w[0], 10.0f);
}

TEST(SgdTest, ZeroGradClearsAccumulators) {
  Tensor w({2});
  Tensor g({2}, {3, 4});
  SgdMomentum opt({ParamRef{"w", &w, &g}}, 0.1f);
  opt.zero_grad();
  EXPECT_EQ(g.norm(), 0.0f);
}

}  // namespace
}  // namespace deco::nn
