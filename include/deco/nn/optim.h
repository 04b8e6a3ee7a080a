// Optimizers over Module parameters or raw tensors.
//
// SgdMomentum follows the paper's training setup (SGD + momentum + weight
// decay). The same class drives both model updates (opt_θ) and synthetic-image
// updates (opt_S) — for the latter callers register the buffer tensors
// directly via the raw-tensor constructor.
#pragma once

#include <cstdint>
#include <vector>

#include "deco/nn/module.h"

namespace deco::nn {

class SgdMomentum {
 public:
  /// Optimizes all parameters of `model`.
  SgdMomentum(Module& model, float lr, float momentum = 0.9f,
              float weight_decay = 0.0f);
  /// Optimizes raw (value, grad) tensor pairs, e.g. synthetic images.
  SgdMomentum(std::vector<ParamRef> params, float lr, float momentum = 0.9f,
              float weight_decay = 0.0f);

  /// Applies one update from the accumulated gradients, then leaves the
  /// gradients untouched (call zero_grad separately).
  void step();

  /// Zeroes all registered gradient accumulators.
  void zero_grad();

 private:
  std::vector<ParamRef> params_;
  std::vector<Tensor> velocity_;
  float lr_;
  float momentum_;
  float weight_decay_;
};

}  // namespace deco::nn
