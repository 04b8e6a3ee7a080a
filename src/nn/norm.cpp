#include <cmath>
#include <vector>

#include "deco/core/thread_pool.h"
#include "deco/nn/layers.h"
#include "deco/tensor/check.h"

namespace deco::nn {

namespace {

constexpr int64_t kPlaneBlock = 8;

// InstanceNorm2d's forward over B consecutive (n, c) planes. Each plane keeps
// its own double mean/var sums in ascending element order; running B planes
// side by side only overlaps B independent add chains, so every plane's
// result is exactly what a one-plane loop computes.
struct NormPlanes {
  const float* in;
  float* xhat;
  float* inv_std;
  float* out;
  const float* gamma;
  const float* beta;
  int64_t M;
  int64_t channels;
  float eps;

  template <int64_t B>
  void run(int64_t nc0) const {
    const float* src = in + nc0 * M;
    double mean[B] = {};
    for (int64_t i = 0; i < M; ++i) {
      for (int64_t b = 0; b < B; ++b) mean[b] += src[b * M + i];
    }
    for (int64_t b = 0; b < B; ++b) mean[b] /= static_cast<double>(M);
    double var[B] = {};
    for (int64_t i = 0; i < M; ++i) {
      for (int64_t b = 0; b < B; ++b) {
        const double d = src[b * M + i] - mean[b];
        var[b] += d * d;
      }
    }
    for (int64_t b = 0; b < B; ++b) {
      const int64_t nc = nc0 + b;
      const double v = var[b] / static_cast<double>(M);
      const float inv = static_cast<float>(1.0 / std::sqrt(v + eps));
      inv_std[nc] = inv;
      const float* x = src + b * M;
      float* xh = xhat + nc * M;
      float* dst = out + nc * M;
      const int64_t c = nc % channels;
      const float g = gamma[c], bt = beta[c], mu = static_cast<float>(mean[b]);
      for (int64_t i = 0; i < M; ++i) {
        xh[i] = (x[i] - mu) * inv;
        dst[i] = g * xh[i] + bt;
      }
    }
  }
};

// Phase 1 of InstanceNorm2d's backward over B consecutive planes: each
// plane's ascending double sums of dy and dy·x̂ (B planes side by side, as
// in NormPlanes), stored for the serial γ/β fold, then dx when asked for.
struct NormGradPlanes {
  const float* dy;
  const float* xhat;
  const float* inv_std;
  const float* gamma;
  float* dx;
  double* sum_dy;     // [planes], or null when no parameter grads are wanted
  double* sum_dy_xh;  // likewise
  int64_t M;
  int64_t channels;
  bool want_input;

  template <int64_t B>
  void run(int64_t nc0) const {
    const float* d = dy + nc0 * M;
    const float* x = xhat + nc0 * M;
    double s_dy[B] = {}, s_dy_xh[B] = {};
    for (int64_t i = 0; i < M; ++i) {
      for (int64_t b = 0; b < B; ++b) {
        s_dy[b] += d[b * M + i];
        s_dy_xh[b] += static_cast<double>(d[b * M + i]) * x[b * M + i];
      }
    }
    for (int64_t b = 0; b < B; ++b) {
      const int64_t nc = nc0 + b;
      if (sum_dy != nullptr) {
        sum_dy[nc] = s_dy[b];
        sum_dy_xh[nc] = s_dy_xh[b];
      }
      if (!want_input) continue;
      const float* dyp = d + b * M;
      const float* xh = x + b * M;
      float* dxp = dx + nc * M;
      const float g = gamma[nc % channels];
      const float inv = inv_std[nc];
      const float mean_dy = static_cast<float>(s_dy[b] / M);
      const float mean_dy_xh = static_cast<float>(s_dy_xh[b] / M);
      // dx = γ·inv_std·(dy − mean(dy) − x̂·mean(dy·x̂))
      for (int64_t i = 0; i < M; ++i) {
        dxp[i] = g * inv * (dyp[i] - mean_dy - xh[i] * mean_dy_xh);
      }
    }
  }
};

// Runs body.run<kPlaneBlock> over every whole block of a parallel chunk and
// body.run<1> over the rest. Chunks are whole blocks except the last, so
// only the last few planes run one at a time. Planes write disjoint outputs,
// so the split is bitwise deterministic.
template <typename Planes>
void for_each_plane_block(int64_t planes, const Planes& body) {
  core::parallel_for(0, planes, kPlaneBlock, [&](int64_t nc0, int64_t nc1) {
    int64_t nc = nc0;
    for (; nc + kPlaneBlock <= nc1; nc += kPlaneBlock) {
      body.template run<kPlaneBlock>(nc);
    }
    for (; nc < nc1; ++nc) body.template run<1>(nc);
  });
}

}  // namespace

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

  Tensor out(input.shape());
  const NormPlanes planes{input.data(), xhat_.data(), inv_std_.data(),
                          out.data(),   gamma_.data(), beta_.data(),
                          M,            channels_,     eps_};
  // Every (n, c) plane is normalized independently: disjoint writes, so the
  // batch-parallel split is bitwise deterministic.
  for_each_plane_block(N * channels_, planes);
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
  double* sum_dy = want_params ? plane_sum_dy.data() : nullptr;
  double* sum_dy_xh = want_params ? plane_sum_dy_xh.data() : nullptr;
  const NormGradPlanes grads{pdy, px, ps, pg, pdx, sum_dy, sum_dy_xh,
                             M, channels_, want_input};
  for_each_plane_block(planes, grads);
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
