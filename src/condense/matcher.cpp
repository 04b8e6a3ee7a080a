#include "deco/condense/matcher.h"

#include "deco/condense/grad_distance.h"
#include "deco/condense/grad_utils.h"
#include "deco/core/telemetry.h"
#include "deco/nn/loss.h"
#include "deco/tensor/check.h"
#include "deco/tensor/ops.h"

namespace deco::condense {

GradientMatcher::GradientMatcher(nn::Module& model, float fd_scale)
    : model_(model), fd_scale_(fd_scale) {
  DECO_CHECK(fd_scale > 0.0f, "GradientMatcher: fd_scale must be positive");
}

MatchResult GradientMatcher::match(const Tensor& x_syn,
                                   const std::vector<int64_t>& y_syn,
                                   const Tensor& x_real,
                                   const std::vector<int64_t>& y_real,
                                   const std::vector<float>& w_real) {
  return match_impl(x_syn, y_syn, x_real, y_real, w_real, nullptr, nullptr);
}

GradientMatcher::SoftResult GradientMatcher::match_soft(
    const Tensor& x_syn, const Tensor& q_syn, const Tensor& x_real,
    const std::vector<int64_t>& y_real, const std::vector<float>& w_real) {
  DECO_CHECK(x_syn.ndim() == 4 && x_real.ndim() == 4,
             "match_soft: batches must be NCHW");
  DECO_CHECK(q_syn.ndim() == 2 && q_syn.dim(0) == x_syn.dim(0),
             "match_soft: target count mismatch");
  DECO_CHECK(x_real.dim(0) == static_cast<int64_t>(y_real.size()),
             "match_soft: real label count mismatch");

  DECO_TRACE_SCOPE("condense/match");
  {
    static core::telemetry::Counter& c =
        core::telemetry::counter("condense/matcher_passes");
    c.add(1);
  }

  SoftResult res;

  // Pass 1: g_real (hard pseudo-labels with confidence weights, Eq. 4).
  model_.zero_grad();
  {
    Tensor logits = model_.forward(x_real);
    auto ce = nn::weighted_cross_entropy(logits, y_real, w_real);
    res.base.loss_real = ce.loss;
    model_.backward(ce.grad_logits, nn::GradNeed::kParams);
  }
  GradVec g_real = clone_grads(model_);

  // Pass 2: g_syn under the soft-target loss.
  model_.zero_grad();
  {
    Tensor logits = model_.forward(x_syn);
    auto ce = nn::soft_cross_entropy(logits, q_syn);
    res.base.loss_syn = ce.loss;
    model_.backward(ce.grad_logits, nn::GradNeed::kParams);
  }
  GradVec g_syn = clone_grads(model_);

  GradDistanceResult dist = gradient_distance(g_syn, g_real);
  res.base.distance = dist.value;

  const float dnorm = global_norm(dist.d_syn);
  if (dnorm < 1e-12f) {
    res.base.grad_syn = Tensor(x_syn.shape());
    res.grad_targets = Tensor(q_syn.shape());
    return res;
  }
  const float eps = fd_scale_ / dnorm;

  // Passes 3–4: ∇_X L and ∇_q L at θ± (input gradients only; θ's gradient
  // accumulators keep g_syn until the final zero_grad).
  perturb_params(model_, dist.d_syn, eps);
  Tensor gx_plus, gq_plus;
  {
    Tensor logits = model_.forward(x_syn);
    auto ce = nn::soft_cross_entropy(logits, q_syn);
    gx_plus = model_.backward(ce.grad_logits, nn::GradNeed::kInput);
    gq_plus = std::move(ce.grad_targets);
  }
  perturb_params(model_, dist.d_syn, -2.0f * eps);
  Tensor gx_minus, gq_minus;
  {
    Tensor logits = model_.forward(x_syn);
    auto ce = nn::soft_cross_entropy(logits, q_syn);
    gx_minus = model_.backward(ce.grad_logits, nn::GradNeed::kInput);
    gq_minus = std::move(ce.grad_targets);
  }
  perturb_params(model_, dist.d_syn, eps);
  model_.zero_grad();

  gx_plus.sub_(gx_minus);
  gx_plus.scale_(1.0f / (2.0f * eps));
  res.base.grad_syn = std::move(gx_plus);

  gq_plus.sub_(gq_minus);
  gq_plus.scale_(1.0f / (2.0f * eps));
  res.grad_targets = std::move(gq_plus);
  return res;
}

MatchResult GradientMatcher::match_with_params(
    const Tensor& x_syn, const std::vector<int64_t>& y_syn, const Tensor& x_real,
    const std::vector<int64_t>& y_real, const std::vector<float>& w_real,
    const augment::SiameseAugment& aug, const augment::AugmentParams& params) {
  return match_impl(x_syn, y_syn, x_real, y_real, w_real, &aug, &params);
}

MatchResult GradientMatcher::match_impl(const Tensor& x_syn,
                                        const std::vector<int64_t>& y_syn,
                                        const Tensor& x_real,
                                        const std::vector<int64_t>& y_real,
                                        const std::vector<float>& w_real,
                                        const augment::SiameseAugment* aug,
                                        const augment::AugmentParams* params) {
  DECO_CHECK(x_syn.ndim() == 4 && x_real.ndim() == 4,
             "GradientMatcher: batches must be NCHW");
  DECO_CHECK(x_syn.dim(0) == static_cast<int64_t>(y_syn.size()),
             "GradientMatcher: synthetic label count mismatch");
  DECO_CHECK(x_real.dim(0) == static_cast<int64_t>(y_real.size()),
             "GradientMatcher: real label count mismatch");

  DECO_TRACE_SCOPE("condense/match");
  {
    static core::telemetry::Counter& c =
        core::telemetry::counter("condense/matcher_passes");
    c.add(1);
  }

  // Siamese augmentation: one sampled transform applied to both batches.
  const bool augmented = aug != nullptr && params != nullptr &&
                         params->kind != augment::OpKind::kNone;
  const Tensor& xs = augmented ? aug->forward(x_syn, *params) : x_syn;
  const Tensor& xr = augmented ? aug->forward(x_real, *params) : x_real;

  MatchResult res;

  // Pass 1: g_real = ∇_θ L(X_real) with confidence weights (Eq. 4).
  model_.zero_grad();
  {
    Tensor logits = model_.forward(xr);
    auto ce = nn::weighted_cross_entropy(logits, y_real, w_real);
    res.loss_real = ce.loss;
    model_.backward(ce.grad_logits, nn::GradNeed::kParams);
  }
  GradVec g_real = clone_grads(model_);

  // Pass 2: g_syn = ∇_θ L(X_syn), unit weights.
  model_.zero_grad();
  {
    Tensor logits = model_.forward(xs);
    auto ce = nn::weighted_cross_entropy(logits, y_syn);
    res.loss_syn = ce.loss;
    model_.backward(ce.grad_logits, nn::GradNeed::kParams);
  }
  GradVec g_syn = clone_grads(model_);

  // Analytic ∇_{g_syn} D (no network pass).
  GradDistanceResult dist = gradient_distance(g_syn, g_real);
  res.distance = dist.value;

  const float dnorm = global_norm(dist.d_syn);
  if (dnorm < 1e-12f) {
    // Gradients already perfectly aligned (or degenerate): nothing to do.
    res.grad_syn = Tensor(x_syn.shape());
    return res;
  }
  const float eps = fd_scale_ / dnorm;

  // Pass 3: ∇_X L at θ⁺ = θ + ε·∇D. Passes 3–4 read input gradients only,
  // so θ's gradient accumulators keep g_syn until the final zero_grad.
  perturb_params(model_, dist.d_syn, eps);
  Tensor gx_plus;
  {
    Tensor logits = model_.forward(xs);
    auto ce = nn::weighted_cross_entropy(logits, y_syn);
    gx_plus = model_.backward(ce.grad_logits, nn::GradNeed::kInput);
  }

  // Pass 4: ∇_X L at θ⁻ = θ − ε·∇D.
  perturb_params(model_, dist.d_syn, -2.0f * eps);
  Tensor gx_minus;
  {
    Tensor logits = model_.forward(xs);
    auto ce = nn::weighted_cross_entropy(logits, y_syn);
    gx_minus = model_.backward(ce.grad_logits, nn::GradNeed::kInput);
  }

  // Restore θ.
  perturb_params(model_, dist.d_syn, eps);
  model_.zero_grad();

  // Central difference: ∇_X D ≈ (∇_X L⁺ − ∇_X L⁻) / (2ε).
  gx_plus.sub_(gx_minus);
  gx_plus.scale_(1.0f / (2.0f * eps));

  // Chain rule through the augmentation back to the raw synthetic pixels.
  res.grad_syn = augmented ? aug->backward(gx_plus, *params) : std::move(gx_plus);
  return res;
}

}  // namespace deco::condense
