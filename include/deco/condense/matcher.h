// One-step gradient matching with finite-difference input gradients — the
// efficiency core of DECO (Section III-C, Eqs. 5–7).
//
// Exactly five forward-backward passes per call:
//   1. g_real  = ∇_θ L_θ(X_real)          (confidence-weighted CE)
//   2. g_syn   = ∇_θ L_θ(X_syn)
//   3. ∇_{g_syn} D(g_syn, g_real)          (analytic, no network pass)
//   4. ∇_X L at θ⁺ = θ + ε·∇D              (input-gradient backprop)
//   5. ∇_X L at θ⁻ = θ − ε·∇D
// and the estimate ∇_X D ≈ (∇_X L_{θ⁺} − ∇_X L_{θ⁻}) / (2ε) with
// ε = 0.01/‖∇_{g_syn}D‖₂ as in the paper (footnote 2, following DARTS).
// Time and space are O(|θ| + |X|) rather than O(|θ|·|X|).
#pragma once

#include <cstdint>
#include <vector>

#include "deco/augment/siamese.h"
#include "deco/nn/module.h"
#include "deco/tensor/tensor.h"

namespace deco::condense {

struct MatchResult {
  float distance = 0.0f;   ///< D(g_syn, g_real) at the current synthetic data
  float loss_real = 0.0f;  ///< CE of the real batch under the random model
  float loss_syn = 0.0f;
  Tensor grad_syn;         ///< ∇_{X_syn} D, shape of x_syn
};

class GradientMatcher {
 public:
  /// `model` is the (externally randomized) network θ̃ the gradients are
  /// measured on; the matcher perturbs and restores its parameters in place.
  /// `fd_scale` is the 0.01 numerator of the ε rule.
  explicit GradientMatcher(nn::Module& model, float fd_scale = 0.01f);

  /// Plain matching step (DECO, DC).
  MatchResult match(const Tensor& x_syn, const std::vector<int64_t>& y_syn,
                    const Tensor& x_real, const std::vector<int64_t>& y_real,
                    const std::vector<float>& w_real);

  /// Soft-label matching (the learnable-soft-label extension): synthetic
  /// samples carry class *distributions* q_syn [n, C] instead of hard labels.
  /// Returns, alongside the pixel gradient, ∇_{q_syn} D computed by the same
  /// finite-difference rule (∇_q L is analytic: −log p).
  struct SoftResult {
    MatchResult base;
    Tensor grad_targets;  // [n_syn, C]
  };
  SoftResult match_soft(const Tensor& x_syn, const Tensor& q_syn,
                        const Tensor& x_real,
                        const std::vector<int64_t>& y_real,
                        const std::vector<float>& w_real);

  /// Siamese-augmented matching step (DSA): the transform `params` (drawn by
  /// the caller with aug.sample) is applied to both batches; the returned
  /// gradient is w.r.t. the *unaugmented* synthetic pixels (chain rule
  /// through the augmentation). Sampling outside lets a caller draw the
  /// per-class params serially (keeping the rng stream order fixed) and then
  /// run the matching passes on worker threads.
  MatchResult match_with_params(const Tensor& x_syn,
                                const std::vector<int64_t>& y_syn,
                                const Tensor& x_real,
                                const std::vector<int64_t>& y_real,
                                const std::vector<float>& w_real,
                                const augment::SiameseAugment& aug,
                                const augment::AugmentParams& params);

 private:
  MatchResult match_impl(const Tensor& x_syn, const std::vector<int64_t>& y_syn,
                         const Tensor& x_real, const std::vector<int64_t>& y_real,
                         const std::vector<float>& w_real,
                         const augment::SiameseAugment* aug,
                         const augment::AugmentParams* params);

  nn::Module& model_;
  float fd_scale_;
};

}  // namespace deco::condense
