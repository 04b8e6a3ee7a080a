// Helpers for working with "gradient vectors": per-parameter-tensor lists of
// gradients, the g_syn / g_real objects of the paper's Eqs. (5)–(7).
#pragma once

#include <vector>

#include "deco/nn/module.h"
#include "deco/tensor/tensor.h"

namespace deco::condense {

/// One tensor per model parameter, aligned with Module::parameters() order.
using GradVec = std::vector<Tensor>;

/// Deep-copies the current gradient accumulators of `m`.
GradVec clone_grads(nn::Module& m);

/// params += eps * direction (direction aligned with parameters()).
void perturb_params(nn::Module& m, const GradVec& direction, float eps);

/// Euclidean norm over the concatenation of all tensors.
float global_norm(const GradVec& g);

}  // namespace deco::condense
