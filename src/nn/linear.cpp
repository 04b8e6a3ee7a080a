#include <cmath>

#include "deco/core/thread_pool.h"
#include "deco/nn/layers.h"
#include "deco/tensor/check.h"

namespace deco::nn {

Linear::Linear(int64_t in_features, int64_t out_features, Rng& rng)
    : in_features_(in_features),
      out_features_(out_features),
      weight_({out_features, in_features}),
      bias_({out_features}),
      weight_grad_({out_features, in_features}),
      bias_grad_({out_features}) {
  reinitialize(rng);
}

void Linear::reinitialize(Rng& rng) {
  const double fan_in = static_cast<double>(in_features_);
  rng.fill_normal(weight_, 0.0, std::sqrt(2.0 / fan_in));
  bias_.zero();
}

Tensor Linear::forward(const Tensor& input) {
  DECO_CHECK(input.ndim() == 2 && input.dim(1) == in_features_,
             "Linear: expected [N, " + std::to_string(in_features_) + "], got " +
                 input.shape_str());
  input_ = input;
  // y = x W^T + b
  Tensor out = matmul_nt(input, weight_);
  const int64_t n = out.dim(0);
  float* po = out.data();
  const float* pb = bias_.data();
  core::parallel_for(0, n, 64, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i)
      for (int64_t j = 0; j < out_features_; ++j)
        po[i * out_features_ + j] += pb[j];
  });
  return out;
}

Tensor Linear::backward(const Tensor& grad_output, GradNeed need) {
  DECO_CHECK(grad_output.ndim() == 2 && grad_output.dim(0) == input_.dim(0) &&
                 grad_output.dim(1) == out_features_,
             "Linear::backward: grad shape mismatch " + grad_output.shape_str());
  // dW += g^T x (folded straight into the accumulator); db += sum over
  // batch ; dx = g W
  if (need != GradNeed::kInput) {
    matmul_tn_acc_into(grad_output, input_, weight_grad_);
    const int64_t n = grad_output.dim(0);
    const float* pg = grad_output.data();
    float* pbg = bias_grad_.data();
    // Each output feature owns its bias-grad slot; the batch sum per feature
    // keeps the serial order, so the split is bitwise deterministic.
    core::parallel_for(0, out_features_, 16, [&](int64_t j0, int64_t j1) {
      for (int64_t j = j0; j < j1; ++j) {
        double acc = 0.0;
        for (int64_t i = 0; i < n; ++i) acc += pg[i * out_features_ + j];
        pbg[j] += static_cast<float>(acc);
      }
    });
  }
  if (need == GradNeed::kParams) return Tensor();
  return matmul(grad_output, weight_);
}

void Linear::collect_params(std::vector<ParamRef>& out) {
  out.push_back({"linear.weight", &weight_, &weight_grad_});
  out.push_back({"linear.bias", &bias_, &bias_grad_});
}

}  // namespace deco::nn
