#include <cmath>

#include "deco/condense/grad_utils.h"
#include "deco/condense/method.h"
#include "deco/nn/loss.h"
#include "deco/tensor/check.h"

namespace deco::condense {

namespace {

// Deep-copies all parameter values of a module.
std::vector<Tensor> snapshot(nn::Module& m) {
  std::vector<Tensor> out;
  for (nn::ParamRef& p : m.parameters()) out.push_back(*p.value);
  return out;
}

void restore(nn::Module& m, const std::vector<Tensor>& snap) {
  auto params = m.parameters();
  DECO_CHECK(params.size() == snap.size(), "restore: parameter count mismatch");
  for (size_t i = 0; i < params.size(); ++i) *params[i].value = snap[i];
}

// One plain SGD step on the module's accumulated gradients.
void sgd_step(nn::Module& m, float lr) {
  for (nn::ParamRef& p : m.parameters()) p.value->add_scaled_(*p.grad, -lr);
}

void rms_normalize(Tensor& grad) {
  const float rms = grad.norm() /
                    std::sqrt(static_cast<float>(std::max<int64_t>(1, grad.numel())));
  if (rms > 1e-12f) grad.scale_(1.0f / rms);
}

}  // namespace

MttCondenser::MttCondenser(const nn::ConvNetConfig& model_config,
                           MttConfig config, uint64_t seed)
    : config_(config), rng_(seed) {
  scratch_ = std::make_unique<nn::ConvNet>(model_config, rng_);
}

void MttCondenser::condense(const CondenseContext& ctx) {
  DECO_CHECK(ctx.buffer != nullptr && ctx.x_real != nullptr &&
                 ctx.y_real != nullptr && ctx.active_classes != nullptr &&
                 ctx.rng != nullptr,
             "MttCondenser: incomplete context");
  SyntheticBuffer& buf = *ctx.buffer;
  if (velocity_.numel() != buf.images().numel())
    velocity_ = Tensor(buf.images().shape());
  last_losses_.clear();

  const std::vector<int64_t> active_rows =
      buf.rows_of_classes(*ctx.active_classes);
  if (active_rows.empty() || ctx.x_real->dim(0) == 0) return;
  const std::vector<int64_t> y_syn = buf.gather_labels(active_rows);
  const std::vector<float> w_real =
      ctx.w_real != nullptr ? *ctx.w_real : std::vector<float>{};

  const int64_t per = buf.channels() * buf.height() * buf.width();

  for (int64_t l = 0; l < config_.iterations; ++l) {
    scratch_->reinitialize(rng_);
    const std::vector<Tensor> theta0 = snapshot(*scratch_);

    // Expert trajectory: a few SGD steps on the real segment.
    for (int64_t t = 0; t < config_.expert_steps; ++t) {
      scratch_->zero_grad();
      Tensor logits = scratch_->forward(*ctx.x_real);
      auto ce = nn::weighted_cross_entropy(logits, *ctx.y_real, w_real);
      scratch_->backward(ce.grad_logits, nn::GradNeed::kParams);
      sgd_step(*scratch_, config_.lr_model);
    }
    const std::vector<Tensor> theta_expert = snapshot(*scratch_);

    // Student: one step on the synthetic data from the same init.
    restore(*scratch_, theta0);
    Tensor x_syn = buf.gather(active_rows);
    scratch_->zero_grad();
    {
      Tensor logits = scratch_->forward(x_syn);
      auto ce = nn::weighted_cross_entropy(logits, y_syn);
      scratch_->backward(ce.grad_logits, nn::GradNeed::kParams);
    }
    GradVec g_syn = clone_grads(*scratch_);

    // Trajectory loss ‖θ_s − θ*‖² with θ_s = θ₀ − lr·g_syn, and the
    // direction v = ∂loss/∂g_syn = −2·lr·(θ_s − θ*).
    GradVec v;
    v.reserve(g_syn.size());
    double loss = 0.0;
    for (size_t i = 0; i < g_syn.size(); ++i) {
      Tensor diff = theta0[i];
      diff.add_scaled_(g_syn[i], -config_.lr_model);
      diff.sub_(theta_expert[i]);
      loss += static_cast<double>(diff.squared_norm());
      diff.scale_(-2.0f * config_.lr_model);
      v.push_back(std::move(diff));
    }
    last_losses_.push_back(static_cast<float>(loss));

    const float vnorm = global_norm(v);
    if (vnorm < 1e-12f) continue;
    const float eps = config_.fd_scale / vnorm;

    // Central difference around θ₀ (Eq. 7's trick on the new direction).
    restore(*scratch_, theta0);
    perturb_params(*scratch_, v, eps);
    Tensor gx_plus;
    {
      Tensor logits = scratch_->forward(x_syn);
      auto ce = nn::weighted_cross_entropy(logits, y_syn);
      gx_plus = scratch_->backward(ce.grad_logits, nn::GradNeed::kInput);
    }
    perturb_params(*scratch_, v, -2.0f * eps);
    Tensor gx_minus;
    {
      Tensor logits = scratch_->forward(x_syn);
      auto ce = nn::weighted_cross_entropy(logits, y_syn);
      gx_minus = scratch_->backward(ce.grad_logits, nn::GradNeed::kInput);
    }
    scratch_->zero_grad();

    gx_plus.sub_(gx_minus);
    gx_plus.scale_(1.0f / (2.0f * eps));
    rms_normalize(gx_plus);

    buf.grads().zero();
    buf.scatter_add_grad(active_rows, gx_plus, 1.0f);
    float* img = buf.images().data();
    float* vel = velocity_.data();
    const float* grd = buf.grads().data();
    for (int64_t r : active_rows) {
      for (int64_t j = 0; j < per; ++j) {
        float& vv = vel[r * per + j];
        vv = config_.momentum_syn * vv + grd[r * per + j];
        img[r * per + j] -= config_.lr_syn * vv;
      }
    }
    buf.clamp_pixels();
  }
}

}  // namespace deco::condense
