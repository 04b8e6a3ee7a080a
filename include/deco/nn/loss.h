// Loss functions.
//
// Each loss returns its scalar value and writes the gradient with respect to
// its direct input (logits or embeddings) — callers then push that gradient
// through the network with Module::backward.
#pragma once

#include <cstdint>
#include <vector>

#include "deco/tensor/tensor.h"

namespace deco::nn {

/// Confidence-weighted softmax cross-entropy (paper Eq. 4).
///
/// L = -(1/N) Σ_i w_i · log p(x_i)_{y_i}
///
/// `weights` may be empty (treated as all-ones; this is the synthetic-data
/// case where w_i = 1). For streamed real data callers pass the model's
/// confidence in the pseudo-label, p_θ(x_i)_{ŷ_i}. The 1/N normalization
/// stabilizes learning-rate choice across batch sizes; the cosine gradient
/// distance used for matching is scale-invariant, so this does not alter the
/// condensation objective.
struct CrossEntropyResult {
  float loss = 0.0f;
  Tensor grad_logits;  // [N, C]
};

CrossEntropyResult weighted_cross_entropy(const Tensor& logits,
                                          const std::vector<int64_t>& labels,
                                          const std::vector<float>& weights = {});

/// Feature-discrimination loss (paper Eq. 8), a supervised-contrastive
/// objective over buffer embeddings:
///
///   L = Σ_{i∈A} -1/|P(i)| Σ_{p∈P(i)} log[ exp(z_i·z_p/τ) / Σ_{n∈N(i)} exp(z_i·z_n/τ) ]
///
/// Anchors `A` index the active samples; P(i) are same-class samples (other
/// than i); N(i) are all samples of one randomly drawn negative class.
/// Embeddings are L2-normalized internally (standard practice for
/// dot-product/temperature contrastive losses — unnormalized magnitudes under
/// τ = 0.07 overflow exp); the returned gradient is with respect to the raw,
/// unnormalized embeddings.
struct ContrastiveResult {
  float loss = 0.0f;
  Tensor grad_embeddings;  // same shape as the input embeddings
};

ContrastiveResult feature_discrimination_loss(
    const Tensor& embeddings,                 // [M, D] — all buffer samples
    const std::vector<int64_t>& labels,       // [M]
    const std::vector<int64_t>& anchor_index, // A ⊆ [0, M)
    const std::vector<int64_t>& negative_class_of_anchor,  // same length as A
    float temperature);

/// Soft-target cross-entropy, the objective behind the learnable-soft-label
/// extension of dataset condensation (synthetic samples carry a learned
/// class *distribution* rather than a hard label):
///
///   L = -(1/N) Σ_i w_i Σ_c q_{i,c} · log p(x_i)_c
///
/// Returns gradients with respect to BOTH the logits (to backpropagate into
/// the network / synthetic pixels) and the targets q (to optimize the labels
/// themselves). Targets need not be normalized; the gradient formulas hold
/// for general non-negative q.
struct SoftCrossEntropyResult {
  float loss = 0.0f;
  Tensor grad_logits;   // [N, C]
  Tensor grad_targets;  // [N, C]: ∂L/∂q = −(w/N)·log p
};

SoftCrossEntropyResult soft_cross_entropy(const Tensor& logits,
                                          const Tensor& targets,
                                          const std::vector<float>& weights = {});

}  // namespace deco::nn
