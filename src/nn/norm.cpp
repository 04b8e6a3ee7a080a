#include <cmath>
#include <vector>

#include "deco/core/thread_pool.h"
#include "deco/nn/layers.h"
#include "deco/tensor/check.h"

namespace deco::nn {

InstanceNorm2d::InstanceNorm2d(int64_t channels, float eps)
    : channels_(channels),
      eps_(eps),
      gamma_({channels}),
      beta_({channels}),
      gamma_grad_({channels}),
      beta_grad_({channels}) {
  gamma_.fill(1.0f);
  beta_.zero();
}

void InstanceNorm2d::reinitialize(Rng& rng) {
  (void)rng;  // affine params restart at identity, as in standard norm layers
  gamma_.fill(1.0f);
  beta_.zero();
}

Tensor InstanceNorm2d::forward(const Tensor& input) {
  DECO_CHECK(input.ndim() == 4 && input.dim(1) == channels_,
             "InstanceNorm2d: expected NCHW with " + std::to_string(channels_) +
                 " channels, got " + input.shape_str());
  in_shape_ = input.shape();
  const int64_t N = input.dim(0), H = input.dim(2), W = input.dim(3);
  const int64_t M = H * W;
  DECO_CHECK(M > 1, "InstanceNorm2d needs more than one spatial element");

  if (!xhat_.same_shape(input)) xhat_ = Tensor(input.shape());
  if (inv_std_.numel() != N * channels_) inv_std_ = Tensor({N * channels_});

  const float* pi = input.data();
  float* px = xhat_.data();
  float* ps = inv_std_.data();
  Tensor out(input.shape());
  float* po = out.data();
  const float* pg = gamma_.data();
  const float* pb = beta_.data();

  // Every (n, c) plane is normalized independently: disjoint writes, so the
  // batch-parallel split is bitwise deterministic.
  core::parallel_for(0, N * channels_, 1, [&](int64_t nc0, int64_t nc1) {
    for (int64_t nc = nc0; nc < nc1; ++nc) {
      const int64_t c = nc % channels_;
      const float* src = pi + nc * M;
      double mean = 0.0;
      for (int64_t i = 0; i < M; ++i) mean += src[i];
      mean /= static_cast<double>(M);
      double var = 0.0;
      for (int64_t i = 0; i < M; ++i) {
        const double d = src[i] - mean;
        var += d * d;
      }
      var /= static_cast<double>(M);
      const float inv = static_cast<float>(1.0 / std::sqrt(var + eps_));
      ps[nc] = inv;
      float* xh = px + nc * M;
      float* dst = po + nc * M;
      const float g = pg[c], b = pb[c], mu = static_cast<float>(mean);
      for (int64_t i = 0; i < M; ++i) {
        xh[i] = (src[i] - mu) * inv;
        dst[i] = g * xh[i] + b;
      }
    }
  });
  return out;
}

Tensor InstanceNorm2d::backward(const Tensor& grad_output, GradNeed need) {
  DECO_CHECK(!in_shape_.empty(), "InstanceNorm2d::backward without forward");
  DECO_CHECK(grad_output.shape() == in_shape_,
             "InstanceNorm2d::backward: grad shape mismatch");
  const int64_t N = in_shape_[0], H = in_shape_[2], W = in_shape_[3];
  const int64_t M = H * W;
  const bool want_input = need != GradNeed::kParams;
  const bool want_params = need != GradNeed::kInput;

  Tensor grad_input = want_input ? Tensor(in_shape_) : Tensor();
  const float* pdy = grad_output.data();
  const float* px = xhat_.data();
  const float* ps = inv_std_.data();
  const float* pg = gamma_.data();
  float* pgg = gamma_grad_.data();
  float* pbg = beta_grad_.data();
  float* pdx = grad_input.data();

  // Phase 1 (parallel): per-plane sums and dx — all writes are plane-local.
  // Phase 2 (serial, ascending nc): fold the per-plane sums into the shared
  // γ/β gradients in the fixed serial order, keeping the reduction bitwise
  // identical for every thread count.
  const int64_t planes = N * channels_;
  const size_t sums = want_params ? static_cast<size_t>(planes) : 0;
  std::vector<double> plane_sum_dy(sums);
  std::vector<double> plane_sum_dy_xh(sums);
  core::parallel_for(0, planes, 1, [&](int64_t nc0, int64_t nc1) {
    for (int64_t nc = nc0; nc < nc1; ++nc) {
      const float* dy = pdy + nc * M;
      const float* xh = px + nc * M;
      double sum_dy = 0.0, sum_dy_xh = 0.0;
      for (int64_t i = 0; i < M; ++i) {
        sum_dy += dy[i];
        sum_dy_xh += static_cast<double>(dy[i]) * xh[i];
      }
      if (want_params) {
        plane_sum_dy[static_cast<size_t>(nc)] = sum_dy;
        plane_sum_dy_xh[static_cast<size_t>(nc)] = sum_dy_xh;
      }
      if (!want_input) continue;

      float* dx = pdx + nc * M;
      const float g = pg[nc % channels_];
      const float inv = ps[nc];
      const float mean_dy = static_cast<float>(sum_dy / M);
      const float mean_dy_xh = static_cast<float>(sum_dy_xh / M);
      // dx = γ·inv_std·(dy − mean(dy) − x̂·mean(dy·x̂))
      for (int64_t i = 0; i < M; ++i) {
        dx[i] = g * inv * (dy[i] - mean_dy - xh[i] * mean_dy_xh);
      }
    }
  });
  for (size_t nc = 0; nc < sums; ++nc) {
    const int64_t c = static_cast<int64_t>(nc) % channels_;
    pbg[c] += static_cast<float>(plane_sum_dy[nc]);
    pgg[c] += static_cast<float>(plane_sum_dy_xh[nc]);
  }
  return grad_input;
}

void InstanceNorm2d::collect_params(std::vector<ParamRef>& out) {
  out.push_back({"norm.gamma", &gamma_, &gamma_grad_});
  out.push_back({"norm.beta", &beta_, &beta_grad_});
}

}  // namespace deco::nn
