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

Tensor Sequential::forward(const Tensor& input) {
  Tensor x = input;
  for (size_t i = 0; i < layers_.size(); ++i) {
    core::telemetry::ScopedSpan span(*fwd_sites_[i]);
    x = layers_[i]->forward(x);
  }
  return x;
}

Tensor Sequential::backward(const Tensor& grad_output, GradNeed need) {
  const GradNeed upper = need == GradNeed::kParams ? GradNeed::kAll : need;
  Tensor g = grad_output;
  for (size_t i = layers_.size(); i-- > 0;) {
    core::telemetry::ScopedSpan span(*bwd_sites_[i]);
    g = layers_[i]->backward(g, i == 0 ? need : upper);
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
