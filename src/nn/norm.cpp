#include <cmath>
#include <type_traits>
#include <vector>

#include "deco/core/thread_pool.h"
#include "deco/core/workspace.h"
#include "deco/nn/layers.h"
#include "deco/tensor/check.h"

namespace deco::nn {

namespace {

constexpr int64_t kPlaneBlock = 8;

// Normalizes B consecutive (n, c) planes of `in` starting at plane nc0:
// stores each plane's inv_std and hands write(nc, x, mu, inv) its input,
// float mean and inv_std. Each plane keeps its own double mean/var sums in
// ascending element order; running B planes side by side only overlaps B
// independent add chains, so every plane's statistics are exactly what a
// one-plane loop computes.
template <int64_t B, typename Write>
void normalize_planes(const float* in, int64_t nc0, int64_t M, float eps,
                      float* inv_std, const Write& write) {
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
    write(nc, src + b * M, static_cast<float>(mean[b]), inv);
  }
}

// Phase 1 of the InstanceNorm backward over B consecutive planes, whose dy
// lies at `d`, one plane after another: each plane's ascending double sums
// of dy and dy·x̂ (B planes side by side, as in normalize_planes), stored for
// the serial γ/β fold, then dx when asked for.
struct NormGradPlanes {
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
  void run(int64_t nc0, const float* d) const {
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

// Calls body(block, nc) for every whole kPlaneBlock block of a parallel
// chunk and body(one, nc) for the rest, where `block` / `one` are
// std::integral_constant plane counts. Chunks are whole blocks except the
// last, so only the last few planes run one at a time. Planes write
// disjoint outputs, so the split is bitwise deterministic.
template <typename Body>
void for_each_plane_block(int64_t planes, const Body& body) {
  core::parallel_for(0, planes, kPlaneBlock, [&](int64_t nc0, int64_t nc1) {
    int64_t nc = nc0;
    for (; nc + kPlaneBlock <= nc1; nc += kPlaneBlock) {
      body(std::integral_constant<int64_t, kPlaneBlock>{}, nc);
    }
    for (; nc < nc1; ++nc) body(std::integral_constant<int64_t, 1>{}, nc);
  });
}

// AvgPool2d(2)'s 1 / (2·2), computed as AvgPool2d computes it.
constexpr float kPoolScale = 1.0f / 4.0f;

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
  const float* pi = input.data();
  float* pxh = xhat_.data();
  float* pinv = inv_std_.data();
  float* po = out.data();
  const float* pg = gamma_.data();
  const float* pb = beta_.data();
  // Every (n, c) plane is normalized independently: disjoint writes, so the
  // batch-parallel split is bitwise deterministic.
  for_each_plane_block(N * channels_, [&](auto block, int64_t nc0) {
    normalize_planes<decltype(block)::value>(
        pi, nc0, M, eps_, pinv,
        [&](int64_t nc, const float* x, float mu, float inv) {
          float* xh = pxh + nc * M;
          float* dst = po + nc * M;
          const float g = pg[nc % channels_], bt = pb[nc % channels_];
          for (int64_t i = 0; i < M; ++i) {
            xh[i] = (x[i] - mu) * inv;
            dst[i] = g * xh[i] + bt;
          }
        });
  });
  return out;
}

Tensor InstanceNorm2d::backward(const Tensor& grad_output, GradNeed need) {
  DECO_CHECK(!in_shape_.empty(), "InstanceNorm2d::backward without forward");
  DECO_CHECK(grad_output.shape() == in_shape_,
             "InstanceNorm2d::backward: grad shape mismatch");
  const float* pdy = grad_output.data();
  const int64_t M = in_shape_[2] * in_shape_[3];
  return backward_planes(
      need, [&](auto /*block*/, int64_t nc0, core::Workspace::Scope&) {
        return pdy + nc0 * M;
      });
}

template <typename DyOf>
Tensor InstanceNorm2d::backward_planes(GradNeed need, const DyOf& dy_of) {
  const int64_t M = in_shape_[2] * in_shape_[3];
  const bool want_input = need != GradNeed::kParams;
  const bool want_params = need != GradNeed::kInput;
  Tensor grad_input = want_input ? Tensor(in_shape_) : Tensor();
  // Phase 1 (parallel): per-plane sums and dx — all writes are plane-local.
  // Phase 2 (serial, ascending nc): fold the per-plane sums into the shared
  // γ/β gradients in the fixed serial order, keeping the reduction bitwise
  // identical for every thread count.
  const int64_t planes = in_shape_[0] * channels_;
  const size_t sums = want_params ? static_cast<size_t>(planes) : 0;
  std::vector<double> sum_dy(sums), sum_dy_xh(sums);
  const NormGradPlanes grads{xhat_.data(),
                             inv_std_.data(),
                             gamma_.data(),
                             grad_input.data(),
                             want_params ? sum_dy.data() : nullptr,
                             want_params ? sum_dy_xh.data() : nullptr,
                             M,
                             channels_,
                             want_input};
  for_each_plane_block(planes, [&](auto block, int64_t nc0) {
    core::Workspace::Scope scratch;
    grads.run<decltype(block)::value>(nc0, dy_of(block, nc0, scratch));
  });
  for (size_t nc = 0; nc < sums; ++nc) {
    const int64_t c = static_cast<int64_t>(nc) % channels_;
    beta_grad_[c] += static_cast<float>(sum_dy[nc]);
    gamma_grad_[c] += static_cast<float>(sum_dy_xh[nc]);
  }
  return grad_input;
}

void InstanceNorm2d::collect_params(std::vector<ParamRef>& out) {
  out.push_back({"norm.gamma", &gamma_, &gamma_grad_});
  out.push_back({"norm.beta", &beta_, &beta_grad_});
}

// ---- NormReluPool ------------------------------------------------------------

Tensor NormReluPool::forward(const Tensor& input) {
  DECO_CHECK(input.ndim() == 4 && input.dim(1) == channels_,
             "NormReluPool: expected NCHW with " + std::to_string(channels_) +
                 " channels, got " + input.shape_str());
  const int64_t N = input.dim(0), H = input.dim(2), W = input.dim(3);
  DECO_CHECK(H > 0 && W > 0 && H % 2 == 0 && W % 2 == 0,
             "NormReluPool: spatial dims " + input.shape_str() +
                 " do not halve cleanly");
  in_shape_ = input.shape();
  const int64_t M = H * W, oh = H / 2, ow = W / 2;

  if (!xhat_.same_shape(input)) xhat_ = Tensor(input.shape());
  if (!mask_.same_shape(input)) mask_ = Tensor(input.shape());
  if (inv_std_.numel() != N * channels_) inv_std_ = Tensor({N * channels_});

  Tensor out({N, channels_, oh, ow});
  const float* pi = input.data();
  float* pxh = xhat_.data();
  float* pm = mask_.data();
  float* pinv = inv_std_.data();
  float* po = out.data();
  const float* pg = gamma_.data();
  const float* pb = beta_.data();
  // Per plane: InstanceNorm2d's x̂ and γ·x̂ + β, ReLU's mask and output (the
  // output only in plane-sized scratch), then AvgPool2d(2)'s 0.0 + the four
  // taps row by row, in double — each layer's own arithmetic.
  for_each_plane_block(N * channels_, [&](auto block, int64_t nc0) {
    core::Workspace::Scope scratch;
    float* relu = scratch.alloc_floats(M);
    normalize_planes<decltype(block)::value>(
        pi, nc0, M, eps_, pinv,
        [&](int64_t nc, const float* x, float mu, float inv) {
          float* xh = pxh + nc * M;
          float* mask = pm + nc * M;
          const float g = pg[nc % channels_], bt = pb[nc % channels_];
          for (int64_t i = 0; i < M; ++i) {
            xh[i] = (x[i] - mu) * inv;
            const float y = g * xh[i] + bt;
            const bool pos = y > 0.0f;
            mask[i] = pos ? 1.0f : 0.0f;
            relu[i] = pos ? y : 0.0f;
          }
          float* dst = po + nc * oh * ow;
          for (int64_t oy = 0; oy < oh; ++oy) {
            const float* r0 = relu + 2 * oy * W;
            const float* r1 = r0 + W;
            float* d = dst + oy * ow;
            for (int64_t ox = 0; ox < ow; ++ox) {
              const double acc = 0.0 + r0[2 * ox] + r0[2 * ox + 1] +
                                 r1[2 * ox] + r1[2 * ox + 1];
              d[ox] = static_cast<float>(acc) * kPoolScale;
            }
          }
        });
  });
  return out;
}

Tensor NormReluPool::backward(const Tensor& grad_output, GradNeed need) {
  DECO_CHECK(!in_shape_.empty(), "NormReluPool::backward without forward");
  const int64_t N = in_shape_[0], H = in_shape_[2], W = in_shape_[3];
  const int64_t M = H * W, oh = H / 2, ow = W / 2;
  DECO_CHECK(grad_output.shape() == std::vector<int64_t>({N, channels_, oh, ow}),
             "NormReluPool::backward: grad " + grad_output.shape_str() +
                 " does not match forward output");
  const float* pg = grad_output.data();
  const float* pm = mask_.data();
  // Each block forms its planes' dy in scratch — AvgPool2d's zeroed gradient
  // plus its share, times ReLU's mask — for InstanceNorm2d's sums and dx.
  return backward_planes(need, [&](auto block, int64_t nc0,
                                   core::Workspace::Scope& scratch) {
    constexpr int64_t B = decltype(block)::value;
    float* dy = scratch.alloc_floats(B * M);
    for (int64_t b = 0; b < B; ++b) {
      const int64_t nc = nc0 + b;
      for (int64_t oy = 0; oy < oh; ++oy) {
        const float* s = pg + nc * oh * ow + oy * ow;
        const float* m0 = pm + nc * M + 2 * oy * W;
        const float* m1 = m0 + W;
        float* d0 = dy + b * M + 2 * oy * W;
        float* d1 = d0 + W;
        for (int64_t ox = 0; ox < ow; ++ox) {
          const float g = 0.0f + s[ox] * kPoolScale;
          d0[2 * ox] = g * m0[2 * ox];
          d0[2 * ox + 1] = g * m0[2 * ox + 1];
          d1[2 * ox] = g * m1[2 * ox];
          d1[2 * ox + 1] = g * m1[2 * ox + 1];
        }
      }
    }
    return static_cast<const float*>(dy);
  });
}

}  // namespace deco::nn
