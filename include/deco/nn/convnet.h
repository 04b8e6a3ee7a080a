// The ConvNet backbone used for every experiment in the paper: D blocks of
// [Conv3x3 → InstanceNorm → ReLU → AvgPool2x2] followed by a linear
// classification head. The convolutional stack doubles as the encoder f_θ for
// the feature-discrimination objective (Section III-D).
//
// Each block is two layers, Conv2d and NormReluPool (the norm, ReLU and pool
// fused, bitwise equal to the three layers), so the encoder's spans read
// nn/<2d>:Conv2d/... and nn/<2d+1>:NormReluPool/....
#pragma once

#include <cstdint>
#include <memory>

#include "deco/nn/sequential.h"

namespace deco::nn {

struct ConvNetConfig {
  int64_t in_channels = 3;
  int64_t image_h = 16;
  int64_t image_w = 16;
  int64_t num_classes = 10;
  int64_t width = 32;   ///< channels per conv block (paper uses 128)
  int64_t depth = 3;    ///< number of conv blocks
};

/// ConvNet = encoder (conv blocks + flatten) + linear head. The split lets
/// callers backpropagate either from logits (classification losses) or from
/// the embedding (contrastive feature-discrimination loss).
class ConvNet : public Module {
 public:
  ConvNet(const ConvNetConfig& config, Rng& rng);

  /// Full forward: logits [N, num_classes].
  Tensor forward(const Tensor& input) override;
  /// Full backward from dL/dlogits; returns dL/dinput (see GradNeed).
  Tensor backward(const Tensor& grad_logits,
                  GradNeed need = GradNeed::kAll) override;

  /// Encoder-only forward: embedding [N, feature_dim].
  Tensor embed(const Tensor& input);
  /// Encoder-only backward from dL/dembedding; returns dL/dinput and leaves
  /// parameter gradients untouched (GradNeed::kInput): its callers optimize
  /// the input pixels, not θ. Must follow a matching embed() (or forward(),
  /// which also runs the encoder).
  Tensor backward_from_embedding(const Tensor& grad_embedding);

  void collect_params(std::vector<ParamRef>& out) override;
  void reinitialize(Rng& rng) override;
  std::string name() const override { return "ConvNet"; }

  int64_t feature_dim() const { return feature_dim_; }
  const ConvNetConfig& config() const { return config_; }

 private:
  ConvNetConfig config_;
  Sequential encoder_;
  std::unique_ptr<Module> head_;
  int64_t feature_dim_ = 0;
};

/// Deep copy: constructs a new ConvNet with the same config and copies
/// parameter values (activation caches are not copied).
std::unique_ptr<ConvNet> clone_convnet(const ConvNet& src);

}  // namespace deco::nn
