#include "deco/nn/sequential.h"

#include <string>

#include "deco/core/telemetry.h"
#include "deco/tensor/check.h"

namespace deco::nn {

Sequential& Sequential::add(std::unique_ptr<Module> layer) {
  DECO_CHECK(layer != nullptr, "Sequential::add: null layer");
  const std::string base =
      "nn/" + std::to_string(layers_.size()) + ":" + layer->name();
  fwd_sites_.push_back(&core::telemetry::span_site(base + "/fwd"));
  bwd_sites_.push_back(&core::telemetry::span_site(base + "/bwd"));
  layers_.push_back(std::move(layer));
  return *this;
}

// The caller's tensor goes straight to the first layer; only layer outputs
// are held here, so neither pass deep-copies its argument.
Tensor Sequential::forward(const Tensor& input) {
  if (layers_.empty()) return input;
  Tensor x;
  const Tensor* cur = &input;
  for (size_t i = 0; i < layers_.size(); ++i) {
    core::telemetry::ScopedSpan span(*fwd_sites_[i]);
    x = layers_[i]->forward(*cur);
    cur = &x;
  }
  return x;
}

Tensor Sequential::backward(const Tensor& grad_output, GradNeed need) {
  if (layers_.empty()) return grad_output;
  const GradNeed upper = need == GradNeed::kParams ? GradNeed::kAll : need;
  Tensor g;
  const Tensor* cur = &grad_output;
  for (size_t i = layers_.size(); i-- > 0;) {
    core::telemetry::ScopedSpan span(*bwd_sites_[i]);
    g = layers_[i]->backward(*cur, i == 0 ? need : upper);
    cur = &g;
  }
  return g;
}

void Sequential::collect_params(std::vector<ParamRef>& out) {
  for (auto& layer : layers_) layer->collect_params(out);
}

void Sequential::reinitialize(Rng& rng) {
  for (auto& layer : layers_) layer->reinitialize(rng);
}

}  // namespace deco::nn
