#include "deco/nn/optim.h"

#include <utility>

#include "deco/tensor/check.h"

namespace deco::nn {

SgdMomentum::SgdMomentum(Module& model, float lr, float momentum,
                         float weight_decay)
    : SgdMomentum(model.parameters(), lr, momentum, weight_decay) {}

SgdMomentum::SgdMomentum(std::vector<ParamRef> params, float lr, float momentum,
                         float weight_decay)
    : params_(std::move(params)),
      lr_(lr),
      momentum_(momentum),
      weight_decay_(weight_decay) {
  velocity_.reserve(params_.size());
  for (const ParamRef& p : params_) {
    DECO_CHECK(p.value != nullptr && p.grad != nullptr,
               "SgdMomentum: null parameter " + p.name);
    DECO_CHECK(p.value->same_shape(*p.grad),
               "SgdMomentum: value/grad shape mismatch for " + p.name);
    velocity_.emplace_back(p.value->shape());
  }
}

void SgdMomentum::step() {
  for (size_t i = 0; i < params_.size(); ++i) {
    float* v = velocity_[i].data();
    float* w = params_[i].value->data();
    const float* g = params_[i].grad->data();
    const int64_t n = params_[i].value->numel();
    for (int64_t j = 0; j < n; ++j) {
      const float grad = g[j] + weight_decay_ * w[j];
      v[j] = momentum_ * v[j] + grad;
      w[j] -= lr_ * v[j];
    }
  }
}

void SgdMomentum::zero_grad() {
  for (ParamRef& p : params_) p.grad->zero();
}

}  // namespace deco::nn
