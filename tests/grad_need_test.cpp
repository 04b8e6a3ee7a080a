// The GradNeed contract of nn::Module::backward, checked byte for byte at 1
// and 4 pool threads:
//   * kInput returns the same dL/dx as kAll and leaves every parameter
//     gradient untouched;
//   * kParams accumulates the same parameter gradients as kAll;
//   * the encoder is per-sample independent: embeddings and input gradients
//     of a sub-batch equal the same rows taken from a larger, reordered
//     batch. DECO's feature discrimination back-propagates only its active
//     sub-batch on the strength of this; a layer that mixes samples (such as
//     BatchNorm) must fail here.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "deco/core/thread_pool.h"
#include "deco/nn/convnet.h"
#include "deco/nn/layers.h"
#include "test_util.h"

namespace deco::nn {
namespace {

using deco::testing::random_tensor;

::testing::AssertionResult same_bytes(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) {
    return ::testing::AssertionFailure()
           << "shape " << a.shape_str() << " vs " << b.shape_str();
  }
  if (std::memcmp(a.data(), b.data(),
                  static_cast<size_t>(a.numel()) * sizeof(float)) != 0) {
    return ::testing::AssertionFailure() << "bytes differ";
  }
  return ::testing::AssertionSuccess();
}

// Copies rows `rows` of a [N, ...] tensor into a new [rows.size(), ...] one.
Tensor rows_of(const Tensor& t, const std::vector<int64_t>& rows) {
  std::vector<int64_t> shape = t.shape();
  const int64_t per = t.numel() / shape[0];
  shape[0] = static_cast<int64_t>(rows.size());
  Tensor out(shape);
  for (size_t k = 0; k < rows.size(); ++k) {
    std::memcpy(out.data() + static_cast<int64_t>(k) * per,
                t.data() + rows[k] * per, static_cast<size_t>(per) * sizeof(float));
  }
  return out;
}

// Fills every parameter gradient with a seeded pattern, standing in for
// gradients accumulated by earlier backward calls.
void fill_grads(Module& m, uint64_t seed) {
  Rng rng(seed);
  for (ParamRef& p : m.parameters()) rng.fill_normal(*p.grad, 0.0, 1.0);
}

ConvNetConfig small_config() {
  ConvNetConfig c;
  c.in_channels = 3;
  c.image_h = 8;
  c.image_w = 8;
  c.num_classes = 5;
  c.width = 7;
  c.depth = 2;
  return c;
}

// One module under test: a factory giving identical instances and an input
// shape for forward().
struct Case {
  const char* name;
  std::function<std::unique_ptr<Module>()> make;
  std::vector<int64_t> input_shape;
};

std::vector<Case> cases() {
  return {
      {"Conv2d",
       [] {
         Rng rng(11);
         return std::make_unique<Conv2d>(3, 5, 3, 1, 1, rng);
       },
       {3, 3, 7, 6}},
      {"Linear",
       [] {
         Rng rng(12);
         return std::make_unique<Linear>(13, 6, rng);
       },
       {5, 13}},
      {"InstanceNorm2d",
       [] {
         auto m = std::make_unique<InstanceNorm2d>(4);
         Rng rng(13);
         for (ParamRef& p : m->parameters()) rng.fill_normal(*p.value, 1.0, 0.5);
         return m;
       },
       {3, 4, 5, 5}},
      {"NormReluPool",
       [] {
         auto m = std::make_unique<NormReluPool>(4);
         Rng rng(15);
         for (ParamRef& p : m->parameters()) rng.fill_normal(*p.value, 1.0, 0.5);
         return m;
       },
       {3, 4, 6, 8}},
      {"ConvNet",
       [] {
         Rng rng(14);
         return std::make_unique<ConvNet>(small_config(), rng);
       },
       {4, 3, 8, 8}},
  };
}

class GradNeedTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    saved_ = core::num_threads();
    core::set_num_threads(GetParam());
  }
  void TearDown() override { core::set_num_threads(saved_); }

 private:
  int saved_ = 1;
};

TEST_P(GradNeedTest, InputOnlyMatchesFullDxAndLeavesParamGradsUntouched) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    Rng rng(21);
    const Tensor x = random_tensor(c.input_shape, rng);
    auto full = c.make();
    auto input_only = c.make();
    fill_grads(*input_only, 5);
    auto untouched = c.make();
    fill_grads(*untouched, 5);

    const Tensor y = full->forward(x);
    ASSERT_TRUE(same_bytes(y, input_only->forward(x)));
    const Tensor g = random_tensor(y.shape(), rng);
    const Tensor dx_full = full->backward(g);
    const Tensor dx_input = input_only->backward(g, GradNeed::kInput);
    EXPECT_TRUE(same_bytes(dx_full, dx_input));

    const auto got = input_only->parameters();
    const auto want = untouched->parameters();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(same_bytes(*got[i].grad, *want[i].grad)) << got[i].name;
    }
  }
}

TEST_P(GradNeedTest, ParamsOnlyAccumulatesTheSameParamGrads) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    Rng rng(22);
    const Tensor x = random_tensor(c.input_shape, rng);
    auto full = c.make();
    auto params_only = c.make();
    // Non-zero starting gradients: both modes must accumulate, not assign.
    fill_grads(*full, 6);
    fill_grads(*params_only, 6);

    const Tensor y = full->forward(x);
    params_only->forward(x);
    const Tensor g = random_tensor(y.shape(), rng);
    full->backward(g);
    params_only->backward(g, GradNeed::kParams);

    const auto got = params_only->parameters();
    const auto want = full->parameters();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(same_bytes(*got[i].grad, *want[i].grad)) << got[i].name;
    }
  }
}

TEST_P(GradNeedTest, ParamsOnlySkipsTheFirstLayersInputGradient) {
  // Sequential hands kParams to layer 0 alone; ConvNet's layer 0 is a
  // Conv2d, which then skips its dX GEMM and col2im.
  Rng rng(23);
  ConvNet net(small_config(), rng);
  const Tensor logits = net.forward(random_tensor({2, 3, 8, 8}, rng));
  EXPECT_EQ(net.backward(random_tensor(logits.shape(), rng), GradNeed::kParams)
                .numel(),
            0);
}

TEST_P(GradNeedTest, SubBatchRowsEqualRowsOfALargerReorderedBatch) {
  // Wide and large enough that the GEMMs span several k-blocks (k = 32·9 >
  // 256) and column tiles, which split differently for the two batch sizes.
  ConvNetConfig cfg = small_config();
  cfg.width = 32;
  cfg.image_h = 16;
  cfg.image_w = 16;
  Rng rng(24);
  ConvNet net(cfg, rng);
  const Tensor samples = random_tensor({7, 3, 16, 16}, rng);
  const std::vector<int64_t> big_order = {4, 0, 6, 2, 5, 1, 3};
  const std::vector<int64_t> sub_order = {3, 6, 1};  // sample ids

  const Tensor x_big = rows_of(samples, big_order);
  const Tensor emb_big = net.embed(x_big);
  const Tensor g_big = random_tensor(emb_big.shape(), rng);
  const Tensor dx_big = net.backward_from_embedding(g_big);

  // Positions of the sub-batch samples inside the big batch.
  std::vector<int64_t> pos;
  for (int64_t id : sub_order) {
    for (size_t p = 0; p < big_order.size(); ++p) {
      if (big_order[p] == id) pos.push_back(static_cast<int64_t>(p));
    }
  }
  const Tensor emb_sub = net.embed(rows_of(samples, sub_order));
  EXPECT_TRUE(same_bytes(emb_sub, rows_of(emb_big, pos)));
  const Tensor dx_sub = net.backward_from_embedding(rows_of(g_big, pos));
  EXPECT_TRUE(same_bytes(dx_sub, rows_of(dx_big, pos)));
}

INSTANTIATE_TEST_SUITE_P(Threads, GradNeedTest, ::testing::Values(1, 4));

}  // namespace
}  // namespace deco::nn
