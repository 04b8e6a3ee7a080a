#include "deco/nn/convnet.h"

#include <memory>

#include "deco/core/telemetry.h"
#include "deco/nn/layers.h"
#include "deco/tensor/check.h"

namespace deco::nn {

ConvNet::ConvNet(const ConvNetConfig& config, Rng& rng) : config_(config) {
  DECO_CHECK(config.depth >= 1, "ConvNet: depth must be >= 1");
  int64_t c = config.in_channels;
  int64_t h = config.image_h;
  int64_t w = config.image_w;
  for (int64_t d = 0; d < config.depth; ++d) {
    encoder_.add(std::make_unique<Conv2d>(c, config.width, /*kernel=*/3,
                                          /*stride=*/1, /*padding=*/1, rng));
    DECO_CHECK(h % 2 == 0 && w % 2 == 0,
               "ConvNet: image size must halve cleanly at block " +
                   std::to_string(d));
    encoder_.add(std::make_unique<NormReluPool>(config.width));
    c = config.width;
    h /= 2;
    w /= 2;
  }
  encoder_.add(std::make_unique<Flatten>());
  feature_dim_ = c * h * w;
  head_ = std::make_unique<Linear>(feature_dim_, config.num_classes, rng);
}

Tensor ConvNet::forward(const Tensor& input) {
  DECO_TRACE_SCOPE("nn/forward");
  return head_->forward(encoder_.forward(input));
}

Tensor ConvNet::backward(const Tensor& grad_logits, GradNeed need) {
  DECO_TRACE_SCOPE("nn/backward");
  // The head is never layer 0: under kParams it must still hand dL/dx down.
  const GradNeed head_need = need == GradNeed::kParams ? GradNeed::kAll : need;
  return encoder_.backward(head_->backward(grad_logits, head_need), need);
}

Tensor ConvNet::embed(const Tensor& input) {
  DECO_TRACE_SCOPE("nn/embed");
  return encoder_.forward(input);
}

Tensor ConvNet::backward_from_embedding(const Tensor& grad_embedding) {
  return encoder_.backward(grad_embedding, GradNeed::kInput);
}

void ConvNet::collect_params(std::vector<ParamRef>& out) {
  encoder_.collect_params(out);
  head_->collect_params(out);
}

void ConvNet::reinitialize(Rng& rng) {
  encoder_.reinitialize(rng);
  head_->reinitialize(rng);
}

std::unique_ptr<ConvNet> clone_convnet(const ConvNet& src) {
  Rng scratch(0);
  auto dst = std::make_unique<ConvNet>(src.config(), scratch);
  copy_params(const_cast<ConvNet&>(src), *dst);
  return dst;
}

}  // namespace deco::nn
