// Ordered container of modules executed front-to-back on forward and
// back-to-front on backward.
#pragma once

#include <memory>
#include <vector>

#include "deco/nn/module.h"

namespace deco::core::telemetry {
struct SpanSite;
}  // namespace deco::core::telemetry

namespace deco::nn {

class Sequential : public Module {
 public:
  Sequential() = default;

  /// Appends a layer; returns a reference for chaining.
  Sequential& add(std::unique_ptr<Module> layer);

  Tensor forward(const Tensor& input) override;
  /// Layer 0 alone receives kParams: the layers above it must still
  /// propagate dL/dx down to it.
  Tensor backward(const Tensor& grad_output,
                  GradNeed need = GradNeed::kAll) override;
  void collect_params(std::vector<ParamRef>& out) override;
  void reinitialize(Rng& rng) override;
  std::string name() const override { return "Sequential"; }

  size_t size() const { return layers_.size(); }
  Module& layer(size_t i) { return *layers_[i]; }

 private:
  std::vector<std::unique_ptr<Module>> layers_;
  // Telemetry span sites ("nn/<i>:<name>/fwd|bwd"), resolved once per layer
  // in add() so forward/backward pay no registry lookup.
  std::vector<core::telemetry::SpanSite*> fwd_sites_;
  std::vector<core::telemetry::SpanSite*> bwd_sites_;
};

}  // namespace deco::nn
